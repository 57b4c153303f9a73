#include <vector>
#include <string>
#pragma once
using namespace std;

namespace geo {
class Shape {
public:
    virtual double area();
    int get() { return sides; }
    int sides = 0;
private:
    int id;
protected:
    static int made;
};
struct Box { Shape *inner; };
}

namespace {
int hidden = 1;
}

template <typename T>
T largest(const std::vector<T> &xs, int n) {
    T best = xs[0];
    for (int i = 1; i < n; ++i) {
        if (xs[i] > best) best = xs[i];
    }
    return best;
}

template int instance;

void sink(int &, int *);
int Shape::count(int k) { return k; }

int run(std::string &name, int n) {
    vector<int> v(n, 0);
    vector<int> *pv = &v;
    std::string s = name;
    std::string *ps = &s;
    std::vector<int> w(3);
    std::cout << s << std::endl;
    int &ref = hidden;
    const int k = 3;
    static int calls = 0;
    class Shape *shape = new Shape(3);
    int *block = new int[n];
    Shape *bare = new Shape;
    bool ok = true && !false;
    if (shape == nullptr) return 0;
    a < b > (c);
    this->sides = k;
    try {
        throw 1;
    } catch (const std::exception &e) {
        calls++;
    } catch (...) {
        calls--;
    }
    return ref + k;
}
