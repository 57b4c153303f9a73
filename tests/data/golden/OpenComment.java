class OpenComment { int f() { return 1; } }
/* a note that never closes
class Lost { int g() { return 2; } }
