}
int ok(void) {
    int x = 1;
    @@ { x; } y;
    x = (int) + 1;
    x = a === b;
    "unterminated
    x \ é;
    y = sizeof(int *);
    ;;
}
int tail(void) { return (int
