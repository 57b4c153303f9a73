function f() { return 1; }
/* a note that never closes
function g() { return 2; }
