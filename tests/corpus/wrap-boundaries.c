/* Arithmetic at the 64-bit wrap boundaries: INT64_MIN / -1 (guarded),
   INT64_MAX + 1, shift counts at and past 63, truncating division of
   negatives, and sums around 2**30 and 2**63 through every shape of
   overflow check: both sides, a non-negative addend or subtrahend
   (one side), two non-negative operands (0 - INT64_MAX, no side), and
   an operand loaded from memory (int or double).  Every variant must
   agree on the wrapped values. */
long big = 9223372036854775807L;
long tiny = (-9223372036854775807L - 1);
double scale = 1.5;
int main(void) {
    long acc = 0;
    long d = -1;
    long i;
    for (i = 0; i < 4; i++) {
        acc += big + 1;
        acc ^= (d != 0 ? tiny / d : tiny);
        acc += (d != 0 ? tiny % d : 0);
        acc ^= (1L << ((63 + i) & 31));
        acc += (tiny >> (63 & 31));
        acc += (-7) / 2;
        acc += (-7) % 2;
        acc += 7 / -2;
        acc += 7 % -2;
    }
    for (i = 0; i < 4; i++) {
        long lo = 1073741822 + i;            /* 2**30 - 2 .. 2**30 + 1 */
        long hi = 9223372036854775806 + (i & 1);
        long nlo = -1 - lo;
        long nhi = -1 - hi;                   /* down to INT64_MIN */
        long nn = hi & 9223372036854775807;   /* never negative */
        long sn = lo & 2147483647;
        acc ^= lo + 1;
        acc ^= hi + (i & 1);                  /* INT64_MAX + 1 wraps */
        acc ^= nhi - (i & 1);                 /* INT64_MIN - 1 wraps */
        acc ^= nlo + nlo;
        acc ^= hi + hi;
        acc ^= nhi + nhi;
        acc ^= (0 - nn) - sn;                 /* 0 - INT64_MAX */
        acc ^= sn - nn;
        acc ^= nn - nhi;                      /* wraps upward */
        acc ^= -nhi;
        acc ^= lo * lo;
        acc ^= tiny + i;                      /* loaded: may be a float */
        acc ^= (long)(scale * lo);
    }
    printf("acc %ld\n", acc);
    return (int)(acc & 63);
}
