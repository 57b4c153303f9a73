namespace n { int f() { return 1; } }
/* a note that never closes
int g() { return 2; }
