/* 0.0 and -0.0 compare equal but are two constants: value numbering
   must not reuse the register holding 0.0 for -0.0, or the second
   printf loses its sign. */
int main(void) {
    double a = 0.0;
    double b = -0.0;
    printf("%f\n", a);
    printf("%f\n", b);
    return 0;
}
