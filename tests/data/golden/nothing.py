def g(:
    pass
