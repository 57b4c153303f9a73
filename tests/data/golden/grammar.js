"use strict";
var total = 0;
let count = 1, name = "x";
const obj = { a: 1, b, "c": 2, 3: 4, default: 5, f: function () { return this; } };
const arr = [1, 2.5, 0xff, `tmpl ${total}`, []];
const named = function inner(a) { return a; };

function add(a, b = 2, ...rest) {
    return a + b;
}

function () { }

class Animal extends Base.Thing {
    ;
    constructor(name) { this.name = name; }
    static create() { return new Animal("x"); }
    async load() { await fetch(this.url); }
    get() { return super.get(); }
}

class Plain { }

for (let i = 0; i < 10; i++) { if (i === 3) continue; }
for (const k in obj) { total += obj[k]; }
for (var v of arr) total++;
for (k in obj) ;
for (i = 0; i !== 3; i += 1) {}
while (x) x--
do { x = x + 1 } while (x < 10)
switch (x) { case 1: break; default: }
try { risky(); } catch (e) { throw e; } finally { done(); }
try { risky(); } catch { }
const sq = x => x * x;
const addf = (p, q) => { return p + q; };
const pr = (a + b) * c;
let t = typeof x === "undefined" || x instanceof Foo || "a" in obj;
delete obj.a;
void 0;
let u = undefined, n = null, yes = true, no = false;
f(...args, 1);
new Foo;
new a.b.C(1).run();
let y = x ? 1 : 2;
