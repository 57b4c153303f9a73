int stray = 1;
class { };
class Recovery {
    + broken;
    List<String x;
    int a, ;
    int ;
    void f(int) { };
    enum Color { RED, GREEN }
    void g() {
        int x = a === b;
        int ;
        int c, ;
        int y = 1;
    }
}
class Tail { void h() { a < b >
