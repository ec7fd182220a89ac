/* Deliberately traps: a division by a global that stays zero, whose
   result nobody reads.  Dead-code elimination keeps dead divisions so
   that a division's trap survives optimization: every oracle cell must
   trap, as the unoptimized cell does. */
long zero = 0;
int main(void) {
    printf("before\n");
    long y = 5 / zero;
    printf("after\n");
    return 0;
}
