/* The arms give b the constants 0.0 and -0.0 (z is known to be 0.0
   only through constant propagation).  They compare equal but are two
   constants, so the join's meet must not pick one, or the folded
   b * 2.0 prints -0.000000 where the program prints 0.000000. */
int main(void) {
    double z = 0.0;
    int c = rand();
    double b;
    if (c >= 0)
        b = z;
    else
        b = -z;
    printf("%f\n", b * 2.0);
    return 0;
}
