class Broken {
public:
    Broken(int n) : sides(n) {}
};
void f() {
    delete p;
    Foo::~Foo();
    auto g = [&](int a) { return a; };
    for (auto &x : xs) { }
    int ok = 1;
}
int
