/* x is a NaN (infinity minus infinity) copied around a loop through y,
   so the loop's phis meet the NaN constant with itself.  A NaN is never
   the same constant, not even as itself: the meet must go overdefined,
   or constant propagation keeps re-raising the phis and never ends. */
int main(void) {
    double x = 1e308 * 10.0;
    double y;
    int i;
    int n = 0;
    x = x - x;
    y = x;
    for (i = 0; i < 4; i++) {
        if (rand() & 1)
            x = y;
        if (x != x)
            n++;
    }
    printf("%d\n", n);
    return 0;
}
