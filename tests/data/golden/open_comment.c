int f(void) { return 1; }
/* a note that never closes
int g(void) { return 2; }
