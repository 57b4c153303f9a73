"""Every node class the python backend converts, at least once."""
import os
import os.path as osp
from collections import OrderedDict as OD, deque

LIMIT: int = 10
pending: list
count = total = 0
total += 1
del pending
assert total, "message"
flags = (True, False, None, 1, 2.5, 3j, "s", b"b", ...)


@staticmethod
@register(name="x")
def function(a, b, /, c: int, d=1, *args, e, f=2, **kwargs):
    global count
    result = a + b - c * d / e // f % 2 ** 3 @ m
    result = a << 1 >> 2 | 3 & 4 ^ 5
    if not a and b or c:
        return
    elif a < b <= c != d == e > f >= 0 is None is not a in b not in c:
        pass
    else:
        return -a
    return ~result


async def fetch(url):
    async with session(url) as s, other():
        data = await s.read()
    async for item in stream():
        yield item
    yield from data
    return [x async for x in data]


class Base:
    pass


@dataclass
class Child(Base, metaclass=Meta):
    size = 0

    def method(self):
        def inner():
            nonlocal self
            return self
        return inner


def loops(items, table):
    while items:
        items.pop()
        if items:
            break
        continue
    else:
        pass
    for i, (k, v) in enumerate(table.items()):
        print(i, k, *items, sep=", ", **table)
    else:
        pass
    try:
        raise ValueError("x") from None
    except (KeyError, ValueError) as exc:
        raise
    except Exception:
        pass
    except:
        pass
    else:
        pass
    finally:
        pass
    with open("f") as fh:
        pass
    squares = [x * x for x in items if x if x > 1]
    evens = {x for x in items}
    gen = sum(x for x in items)
    index = {k: v for k, v in table.items() if v}
    merged = {"a": 1, **table}
    first, *rest = items[1:2], items[::2], items[0]
    items[1:] = []
    lookup = table["key"]
    view = memoryview(b"")[1:2:3]
    chosen = 1 if items else 2
    if (n := len(items)) > 2:
        pass
    fn = lambda x, y=1: x + y
    text = f"{n!r:>{width}} and {n}"
    match n:
        case 1:
            pass
        case _:
            pass
    return {1, 2}, [1, 2], (), {}
