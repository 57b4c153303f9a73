let ok = 1;
const bad = { [k]: 1 };
function f({a}) { };
class A { 1() { } };
let ;
const spread = [...rest];
let s = 'single';
let t = `unterminated
let u = 2;
