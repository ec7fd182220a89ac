/* The function opens with a loop, so its entry block is an empty jump
   to the loop header and the loop's back edge jumps to the entry.
   Cleaning re-roots the function at the header; the back edge must be
   retargeted with it, or the CFG keeps an edge to a deleted block.
   gcc and every oracle cell print 4. */
int g;
int main(void) {
    for (;;) { g++; if (g > 3) break; }
    printf("%d\n", g);
    return 0;
}
