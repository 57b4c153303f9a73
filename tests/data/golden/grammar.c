#include <stdio.h>
#define LIMIT 10
/* a block comment */
// a line comment
typedef unsigned long size_type;

struct point { int x; int y; double w[3]; };
union bits { int i; float f; };
enum color { RED, GREEN = 2, BLUE, };
enum flag { ON, OFF };
struct point;

static const char *names[] = { "a", "b", { 'c' } };
int table[LIMIT][2] = { {1, 2}, {3, 4} };
int counter = 0, *cursor, limit = 0x1F;
extern int prototype(int, char *);
int count(void);
int variadic(const char *fmt, ...);

int *make(struct point *p, int n) {
    struct point local;
    struct point *q = p;
    size_type *slot = 0;
    unsigned int mask = ~0u;
    long big = 10L;
    float ratio = 1.5f;
    double e = 1e5, half = .5, third = 1.0 / 3;
    char c = '\n';
    int arr[] = {1, 2, 3};
    size_type n2 = sizeof(int);
    size_type n3 = sizeof(local);
    size_type n4 = sizeof(n + 1);
    size_type n5 = sizeof n;
    size_type n6 = sizeof(1);
    int casted = (int) ratio;
    char *raw = (char *) p;
    double d2 = (double)(n);
    q->x = p->y + *cursor - &local != 0;
    local.x += 3;
    arr[0] -= arr[1] * 2 % 3 << 1 >> 1 & 4 | 5 ^ 6;
    n2 *= 2; n2 /= 2; n2 %= 3; n2 &= 1; n2 |= 2; n2 ^= 1; n2 <<= 1; n2 >>= 1;
    n < limit;
    if (n > 0 && n < 10 || !n) {
        counter++;
    } else if (n == 0) {
        --counter;
    } else
        counter = n >= 0 ? n : -n;
    while (n-- > 0) continue;
    do { n++; } while (n <= 5);
    for (int i = 0, j = 1; i < n; i++, j++) {
        if (i == 3) break;
        ;
    }
    for (n = 0; n < 3; ++n) ;
    for (;;) { break; }
    switch (n) {
        count();
        case 1:
            n = +n;
            break;
        case 2: {
            return 0;
        }
        default:
            n = 0;
    }
    #ifdef DEBUG
    report(names[0], "done");
    #endif
    return;
}

int main(int argc, char **argv) {
    return make(0, argc) != 0;
}
