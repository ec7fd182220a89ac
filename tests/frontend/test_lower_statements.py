"""Statement-lowering tests, verified end-to-end through the interpreter."""

import pytest

from repro.errors import FrontendError, UnsupportedFeatureError
from repro.frontend import compile_c
from tests.helpers import run_all_variants, run_c


class TestIf:
    def test_if_without_else(self):
        src = r"""
        int main(void) {
            int x;
            x = 1;
            if (x > 0) { x = 10; }
            printf("%d\n", x);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "10"

    def test_if_else_both_arms(self):
        src = r"""
        int classify(int n) {
            if (n < 0) { return -1; } else { return 1; }
        }
        int main(void) {
            printf("%d %d\n", classify(-5), classify(5));
            return 0;
        }
        """
        assert run_c(src).output.strip() == "-1 1"

    def test_else_if_chain(self):
        src = r"""
        int grade(int score) {
            if (score >= 90) { return 'A'; }
            else if (score >= 80) { return 'B'; }
            else if (score >= 70) { return 'C'; }
            else { return 'F'; }
        }
        int main(void) {
            printf("%c%c%c%c\n", grade(95), grade(85), grade(75), grade(5));
            return 0;
        }
        """
        assert run_c(src).output.strip() == "ABCF"

    def test_dangling_else(self):
        src = r"""
        int main(void) {
            int r;
            r = 0;
            if (1)
                if (0) r = 1;
                else r = 2;
            printf("%d\n", r);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "2"


class TestLoops:
    def test_while(self):
        src = r"""
        int main(void) {
            int i;
            int s;
            i = 0; s = 0;
            while (i < 5) { s += i; i++; }
            printf("%d\n", s);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "10"

    def test_while_zero_trips(self):
        src = r"""
        int main(void) {
            int s;
            s = 7;
            while (0) { s = 99; }
            printf("%d\n", s);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "7"

    def test_do_while_runs_at_least_once(self):
        src = r"""
        int main(void) {
            int n;
            n = 0;
            do { n++; } while (0);
            printf("%d\n", n);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "1"

    def test_for_all_clauses(self):
        src = r"""
        int main(void) {
            int s;
            int i;
            s = 0;
            for (i = 1; i <= 4; i++) { s *= 10; s += i; }
            printf("%d\n", s);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "1234"

    def test_for_with_decl_init(self):
        src = r"""
        int main(void) {
            int s;
            s = 0;
            for (int i = 0; i < 3; i++) { s += i; }
            printf("%d\n", s);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "3"

    def test_for_empty_cond_with_break(self):
        src = r"""
        int main(void) {
            int i;
            i = 0;
            for (;;) {
                i++;
                if (i == 6) { break; }
            }
            printf("%d\n", i);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "6"

    def test_continue_skips_rest(self):
        src = r"""
        int main(void) {
            int i;
            int s;
            s = 0;
            for (i = 0; i < 10; i++) {
                if (i % 2) { continue; }
                s += i;
            }
            printf("%d\n", s);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "20"

    def test_continue_in_while_rechecks_condition(self):
        src = r"""
        int main(void) {
            int i;
            int n;
            i = 0; n = 0;
            while (i < 5) {
                i++;
                if (i == 3) { continue; }
                n++;
            }
            printf("%d %d\n", i, n);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "5 4"

    def test_nested_break_only_inner(self):
        src = r"""
        int main(void) {
            int i;
            int j;
            int count;
            count = 0;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 10; j++) {
                    if (j == 2) { break; }
                    count++;
                }
            }
            printf("%d\n", count);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "6"


class TestSwitch:
    def test_dispatch_and_break(self):
        src = r"""
        int name(int d) {
            switch (d) {
            case 1: return 10;
            case 2: return 20;
            default: return -1;
            }
        }
        int main(void) {
            printf("%d %d %d\n", name(1), name(2), name(9));
            return 0;
        }
        """
        assert run_c(src).output.strip() == "10 20 -1"

    def test_fallthrough(self):
        src = r"""
        int main(void) {
            int x;
            int r;
            x = 1;
            r = 0;
            switch (x) {
            case 0: r += 1;
            case 1: r += 10;
            case 2: r += 100;
                break;
            case 3: r += 1000;
            }
            printf("%d\n", r);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "110"

    def test_no_default_falls_out(self):
        src = r"""
        int main(void) {
            int r;
            r = 5;
            switch (99) {
            case 1: r = 1; break;
            }
            printf("%d\n", r);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "5"


class TestFunctions:
    def test_recursion(self):
        src = r"""
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) { printf("%d\n", fib(12)); return 0; }
        """
        assert run_c(src).output.strip() == "144"

    def test_mutual_recursion(self):
        src = r"""
        int is_odd(int n);
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main(void) { printf("%d%d\n", is_even(8), is_odd(8)); return 0; }
        """
        assert run_c(src).output.strip() == "10"

    def test_void_function(self):
        src = r"""
        int g;
        void bump(void) { g++; }
        int main(void) { bump(); bump(); printf("%d\n", g); return 0; }
        """
        assert run_c(src).output.strip() == "2"

    def test_argument_conversion(self):
        src = r"""
        double half(double x) { return x / 2.0; }
        int main(void) { printf("%f\n", half(7)); return 0; }
        """
        assert run_c(src).output.strip() == "3.500000"

    def test_missing_return_defaults_to_zero(self):
        src = "int main(void) { }"
        assert run_c(src).exit_code == 0

    def test_out_params_through_pointers(self):
        src = r"""
        void divmod(int a, int b, int *q, int *r) {
            *q = a / b;
            *r = a % b;
        }
        int main(void) {
            int q;
            int r;
            divmod(17, 5, &q, &r);
            printf("%d %d\n", q, r);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "3 2"


class TestScoping:
    def test_shadowing_in_block(self):
        src = r"""
        int main(void) {
            int x;
            x = 1;
            {
                int x;
                x = 2;
                printf("%d", x);
            }
            printf("%d\n", x);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "21"

    def test_global_initializers(self):
        src = r"""
        int scalar = 42;
        double d = 2.5;
        int arr[4] = {1, 2, 3, 4};
        int grid[2][2] = {{1, 2}, {3, 4}};
        int main(void) {
            printf("%d %f %d %d\n", scalar, d, arr[2], grid[1][0]);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "42 2.500000 3 3"

    def test_local_array_initializer(self):
        src = r"""
        int main(void) {
            int a[3] = {5, 6, 7};
            printf("%d\n", a[0] + a[1] + a[2]);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "18"

    def test_typedef(self):
        src = r"""
        typedef int counter;
        typedef double real;
        counter c;
        int main(void) {
            real r;
            c = 3;
            r = 1.5;
            printf("%d %f\n", c, r);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "3 1.500000"

    def test_break_outside_loop_rejected(self):
        with pytest.raises(FrontendError):
            run_c("int main(void) { break; }")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(FrontendError):
            run_c("int main(void) { continue; }")

    def test_redeclaration_rejected(self):
        with pytest.raises(FrontendError):
            run_c("int main(void) { int x; int x; return 0; }")


class TestInitializerLists:
    """One walk gives an initializer's slots: a file-scope declaration
    folds them, a local stores them, and both read back the same."""

    DECLS = """
    int grid[2][3] = {{1, 2, 3}, {4, 5, 6}};
    struct P p = {7, 2.5};
    struct P ps[2] = {{8, 0.5}, {9, -1.5}};
    long partial[4] = {10, 11};
    double conv[3] = {1, 2.5, 'a'};
    int trunc[2] = {3.7, -2.5};
    int unsized[] = {12, 13, 14};
    int excess[2] = {15, 16, 17};
    """
    BODY = r"""
    int i, j;
    for (i = 0; i < 2; i++)
        for (j = 0; j < 3; j++)
            printf("%d ", grid[i][j]);
    printf("| %d %f |", p.x, p.y);
    for (i = 0; i < 2; i++)
        printf(" %d %f", ps[i].x, ps[i].y);
    printf(" |");
    for (i = 0; i < 4; i++)
        printf(" %ld", partial[i]);
    printf(" | %f %f %f | %d %d", conv[0], conv[1], conv[2], trunc[0], trunc[1]);
    printf(" | %d %d | %d %d\n", unsized[2], (int)sizeof(unsized), excess[1],
           (int)sizeof(excess));
    return 0;
    """
    #: gcc 12's output for either placement
    EXPECTED = (
        "1 2 3 4 5 6 | 7 2.500000 | 8 0.500000 9 -1.500000 | 10 11 0 0 "
        "| 1.000000 2.500000 97.000000 | 3 -2 | 14 12 | 16 8"
    )

    def test_file_scope_and_local_lists_read_back_alike(self):
        head = "struct P { int x; double y; };\n"
        at_file_scope = head + self.DECLS + "int main(void) {" + self.BODY + "}\n"
        in_function = head + "int main(void) {" + self.DECLS + self.BODY + "}\n"
        for source in (at_file_scope, in_function):
            cells = run_all_variants(source)
            assert {cell.output.strip() for cell in cells.values()} == {self.EXPECTED}

    @pytest.mark.parametrize("where", ["file", "function"])
    @pytest.mark.parametrize(
        "decl,message",
        [
            ("int a[3] = 5;", "1:12: scalar initializer for aggregate"),
            # brace elision is not supported: each nested aggregate needs braces
            ("int a[2][2] = {1, 2, 3, 4};", "1:16: scalar initializer for aggregate"),
            ("long g = {5};", "1:11: initializer list for scalar"),
        ],
    )
    def test_rejected_alike_at_file_scope_and_in_a_function(self, where, decl, message):
        if where == "file":
            source = decl + " int main(void) { return 0; }\n"
        else:
            source = "int main(void) {\n" + decl + " return 0; }\n"
            line, rest = message.split(":", 1)
            message = f"{int(line) + 1}:{rest}"
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            compile_c(source, name="init")
        assert str(excinfo.value) == f"init:{message}"
