"""Tests for the runtime intrinsics."""

import math

import pytest

from tests.helpers import run_c


class TestPrintf:
    def test_basic_conversions(self):
        src = r"""
        int main(void) {
            printf("%d|%c|%s|%f|%%\n", -42, 'z', "text", 1.25);
            return 0;
        }
        """
        assert run_c(src).output == "-42|z|text|1.250000|%\n"

    def test_width_and_precision(self):
        src = r"""
        int main(void) {
            printf("[%5d][%-5d][%.2f]\n", 42, 42, 3.14159);
            return 0;
        }
        """
        assert run_c(src).output == "[   42][42   ][3.14]\n"

    def test_hex_and_octal_output(self):
        src = r"""
        int main(void) { printf("%x %o\n", 255, 8); return 0; }
        """
        assert run_c(src).output == "ff 10\n"

    def test_returns_char_count(self):
        src = r"""
        int main(void) { return printf("abcd\n"); }
        """
        assert run_c(src).exit_code == 5

    def test_putchar_puts(self):
        src = r"""
        int main(void) {
            putchar('h');
            putchar('i');
            putchar('\n');
            puts("there");
            return 0;
        }
        """
        assert run_c(src).output == "hi\nthere\n"


class TestMath:
    def test_sqrt(self):
        src = 'int main(void) { printf("%f\\n", sqrt(16.0)); return 0; }'
        assert float(run_c(src).output) == pytest.approx(4.0)

    def test_pow(self):
        src = 'int main(void) { printf("%f\\n", pow(2.0, 10.0)); return 0; }'
        assert float(run_c(src).output) == pytest.approx(1024.0)

    def test_trig_identity(self):
        src = r"""
        int main(void) {
            double x;
            x = 0.7;
            printf("%f\n", sin(x) * sin(x) + cos(x) * cos(x));
            return 0;
        }
        """
        assert float(run_c(src).output) == pytest.approx(1.0)

    def test_exp_log_roundtrip(self):
        src = 'int main(void) { printf("%f\\n", log(exp(2.0))); return 0; }'
        assert float(run_c(src).output) == pytest.approx(2.0)

    def test_fabs_abs(self):
        src = r"""
        int main(void) {
            printf("%f %d\n", fabs(-2.5), abs(-7));
            return 0;
        }
        """
        assert run_c(src).output.strip() == "2.500000 7"

    def test_floor(self):
        src = 'int main(void) { printf("%f\\n", floor(2.9)); return 0; }'
        assert float(run_c(src).output) == pytest.approx(2.0)

    def test_int_arg_promoted_to_double(self):
        src = 'int main(void) { printf("%f\\n", sqrt(25)); return 0; }'
        assert float(run_c(src).output) == pytest.approx(5.0)


class TestStringsAndMemory:
    def test_strlen(self):
        src = r"""
        int main(void) { printf("%d\n", (int) strlen("hello")); return 0; }
        """
        assert run_c(src).output.strip() == "5"

    def test_strcmp(self):
        src = r"""
        int main(void) {
            printf("%d %d %d\n",
                   strcmp("a", "b") < 0,
                   strcmp("b", "a") > 0,
                   strcmp("same", "same") == 0);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "1 1 1"

    def test_strcpy(self):
        src = r"""
        int main(void) {
            char buf[16];
            strcpy(buf, "copied");
            printf("%s\n", buf);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "copied"

    def test_memset_zero(self):
        src = r"""
        int main(void) {
            int arr[4];
            arr[0] = 9; arr[1] = 9; arr[2] = 9; arr[3] = 9;
            memset(arr, 0, 16);
            printf("%d %d\n", arr[0], arr[3]);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "0 0"

    def test_memcpy(self):
        src = r"""
        int main(void) {
            int src_a[3];
            int dst_a[3];
            src_a[0] = 1; src_a[1] = 2; src_a[2] = 3;
            memcpy(dst_a, src_a, 12);
            printf("%d %d %d\n", dst_a[0], dst_a[1], dst_a[2]);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "1 2 3"

    def test_calloc_zeroes(self):
        src = r"""
        int main(void) {
            int *p;
            p = (int *) calloc(4, 4);
            printf("%d\n", p[0] + p[3]);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "0"


class TestRand:
    def test_range(self):
        src = r"""
        int main(void) {
            int i;
            int v;
            srand(123);
            for (i = 0; i < 100; i++) {
                v = rand();
                if (v < 0 || v > 32767) { return 1; }
            }
            return 0;
        }
        """
        assert run_c(src).exit_code == 0

    def test_srand_controls_sequence(self):
        src_a = r"""
        int main(void) { srand(1); printf("%d\n", rand()); return 0; }
        """
        src_b = r"""
        int main(void) { srand(2); printf("%d\n", rand()); return 0; }
        """
        assert run_c(src_a).output != run_c(src_b).output


class TestPrintfLengthModifiers:
    """Regression: every length modifier (h and l alike) is stripped for
    integer conversions — %hd used to leak the 'h' into Python's
    formatter and raise."""

    def test_h_and_l_modifiers(self):
        src = r"""
        int main(void) {
            printf("%hd %hu %ld %lu %hhd %lld\n", 1, 2, 3, 4, 5, 6);
            return 0;
        }
        """
        assert run_c(src).output == "1 2 3 4 5 6\n"

    def test_modifier_with_width(self):
        src = r"""
        int main(void) { printf("[%4hd][%-4ld]\n", 7, 8); return 0; }
        """
        assert run_c(src).output == "[   7][8   ]\n"


class TestMemBulkOps:
    """Guards for the bulk-update memset/memcpy fast paths."""

    def test_memset_nonzero_value(self):
        src = r"""
        int main(void) {
            char buf[8];
            memset(buf, 65, 7);
            buf[7] = 0;
            printf("%s\n", buf);
            return 0;
        }
        """
        assert run_c(src).output == "AAAAAAA\n"

    def test_memset_value_truncated_to_byte(self):
        src = r"""
        int main(void) {
            char buf[2];
            memset(buf, 321, 1);  /* 321 & 0xFF == 65 == 'A' */
            buf[1] = 0;
            printf("%s\n", buf);
            return 0;
        }
        """
        assert run_c(src).output == "A\n"

    def test_memset_zero_count_writes_nothing(self):
        src = r"""
        int main(void) {
            char buf[4];
            buf[0] = 'x'; buf[1] = 0;
            memset(buf, 65, 0);
            printf("%s\n", buf);
            return 0;
        }
        """
        assert run_c(src).output == "x\n"

    def test_memcpy_forward_overlap_propagates(self):
        # dst inside [src, src+count): C UB that our byte-at-a-time loop
        # resolves deterministically by re-reading freshly written bytes;
        # the bulk path must never change this
        src = r"""
        int main(void) {
            char b[10];
            b[0]='a'; b[1]='b'; b[2]='c'; b[3]='d';
            b[4]='e'; b[5]='f'; b[6]='g'; b[7]='h'; b[8]=0;
            memcpy(b + 2, b, 6);
            printf("%s\n", b);
            return 0;
        }
        """
        assert run_c(src).output == "abababab\n"

    def test_memcpy_backward_overlap(self):
        src = r"""
        int main(void) {
            char b[10];
            b[0]='a'; b[1]='b'; b[2]='c'; b[3]='d';
            b[4]='e'; b[5]='f'; b[6]='g'; b[7]='h'; b[8]=0;
            memcpy(b, b + 2, 6);
            printf("%s\n", b);
            return 0;
        }
        """
        assert run_c(src).output == "cdefghgh\n"


class TestIntrinsicCallPath:
    def test_intrinsic_accepts_tuple_args(self):
        # the compiled tier passes tuples, the reference loop passes
        # lists; both must work
        from repro.frontend import compile_c
        from repro.interp import Machine, MachineOptions

        module = compile_c("int main(void) { return 0; }")
        machine = Machine(module, MachineOptions())
        assert machine._exec_intrinsic("labs", (-5,)) == 5
        assert machine._exec_intrinsic("labs", [-5]) == 5
