"""Expression-lowering tests, verified end-to-end through the interpreter."""

import pytest

from repro.errors import FrontendError, UnsupportedFeatureError
from repro.frontend import compile_c
from tests.helpers import run_c


def expr_program(expr: str, setup: str = "", fmt: str = "%d") -> str:
    return (
        "int main(void) {\n"
        + setup
        + f'    printf("{fmt}\\n", {expr});\n'
        + "    return 0;\n}\n"
    )


def eval_int(expr: str, setup: str = "") -> int:
    out = run_c(expr_program(expr, setup)).output.strip()
    return int(out)


def eval_float(expr: str, setup: str = "") -> float:
    out = run_c(expr_program(expr, setup, fmt="%f")).output.strip()
    return float(out)


class TestArithmetic:
    @pytest.mark.parametrize(
        "expr,value",
        [
            ("1 + 2 * 3", 7),
            ("(1 + 2) * 3", 9),
            ("7 / 2", 3),
            ("-7 / 2", -3),       # C: truncation toward zero
            ("7 % 3", 1),
            ("-7 % 3", -1),       # C: sign of the dividend
            ("1 << 10", 1024),
            ("1024 >> 3", 128),
            ("0xF0 & 0x3C", 0x30),
            ("0xF0 | 0x0F", 0xFF),
            ("0xFF ^ 0x0F", 0xF0),
            ("~0", -1),
            ("-(5)", -5),
            ("+(5)", 5),
        ],
    )
    def test_integer_expressions(self, expr, value):
        assert eval_int(expr) == value

    def test_float_division(self):
        assert eval_float("7.0 / 2.0") == pytest.approx(3.5)

    def test_mixed_arithmetic_promotes(self):
        assert eval_float("7 / 2.0") == pytest.approx(3.5)
        assert eval_float("1 + 0.5") == pytest.approx(1.5)

    def test_cast_truncates(self):
        assert eval_int("(int) 3.9") == 3
        assert eval_int("(int) -3.9") == -3

    def test_cast_to_double(self):
        assert eval_float("(double) 3 / 2") == pytest.approx(1.5)


class TestComparisonsAndLogic:
    @pytest.mark.parametrize(
        "expr,value",
        [
            ("3 < 4", 1), ("4 < 3", 0),
            ("3 <= 3", 1), ("3 > 3", 0), ("3 >= 3", 1),
            ("3 == 3", 1), ("3 != 3", 0),
            ("!0", 1), ("!5", 0),
            ("1 && 2", 1), ("1 && 0", 0), ("0 && 1", 0),
            ("0 || 0", 0), ("0 || 7", 1), ("3 || 0", 1),
        ],
    )
    def test_predicates(self, expr, value):
        assert eval_int(expr) == value

    def test_short_circuit_and(self):
        # the right operand must not execute: it would divide by zero
        setup = "    int z;\n    z = 0;\n"
        assert eval_int("z != 0 && (10 / z) > 0", setup) == 0

    def test_short_circuit_or(self):
        setup = "    int z;\n    z = 0;\n"
        assert eval_int("z == 0 || (10 / z) > 0", setup) == 1

    def test_ternary(self):
        assert eval_int("1 ? 10 : 20") == 10
        assert eval_int("0 ? 10 : 20") == 20

    def test_ternary_evaluates_one_side(self):
        setup = "    int z;\n    z = 0;\n"
        assert eval_int("z ? 10 / z : 42", setup) == 42

    def test_comma(self):
        assert eval_int("(1, 2, 3)") == 3


class TestAssignmentOperators:
    @pytest.mark.parametrize(
        "op,start,rhs,expected",
        [
            ("+=", 10, 3, 13),
            ("-=", 10, 3, 7),
            ("*=", 10, 3, 30),
            ("/=", 10, 3, 3),
            ("%=", 10, 3, 1),
            ("<<=", 1, 4, 16),
            (">>=", 16, 2, 4),
            ("&=", 0xF, 0x9, 9),
            ("|=", 0x8, 0x1, 9),
            ("^=", 0xF, 0x1, 14),
        ],
    )
    def test_compound_assignment(self, op, start, rhs, expected):
        setup = f"    int x;\n    x = {start};\n    x {op} {rhs};\n"
        assert eval_int("x", setup) == expected

    def test_assignment_value(self):
        setup = "    int x;\n    int y;\n    y = (x = 5) + 1;\n"
        assert eval_int("y", setup) == 6

    def test_chained_assignment(self):
        setup = "    int a;\n    int b;\n    a = b = 4;\n"
        assert eval_int("a + b", setup) == 8


class TestIncDec:
    def test_postincrement_yields_old(self):
        setup = "    int x;\n    int y;\n    x = 5;\n    y = x++;\n"
        assert eval_int("y * 100 + x", setup) == 506

    def test_preincrement_yields_new(self):
        setup = "    int x;\n    int y;\n    x = 5;\n    y = ++x;\n"
        assert eval_int("y * 100 + x", setup) == 606

    def test_postdecrement(self):
        setup = "    int x;\n    x = 5;\n    x--;\n"
        assert eval_int("x", setup) == 4

    def test_increment_through_pointer_scales(self):
        setup = (
            "    int arr[3];\n    int *p;\n"
            "    arr[0] = 10; arr[1] = 20; arr[2] = 30;\n"
            "    p = arr;\n    p++;\n"
        )
        assert eval_int("*p", setup) == 20


class TestPointersAndArrays:
    def test_address_of_and_deref(self):
        setup = "    int x;\n    int *p;\n    x = 9;\n    p = &x;\n    *p = 11;\n"
        assert eval_int("x", setup) == 11

    def test_pointer_arithmetic(self):
        setup = (
            "    int arr[4];\n    int *p;\n    int i;\n"
            "    for (i = 0; i < 4; i++) { arr[i] = i * i; }\n"
            "    p = arr + 1;\n"
        )
        assert eval_int("*(p + 2)", setup) == 9

    def test_pointer_difference(self):
        setup = (
            "    int arr[8];\n    int *a;\n    int *b;\n"
            "    a = arr + 1;\n    b = arr + 6;\n"
        )
        assert eval_int("(int)(b - a)", setup) == 5

    def test_2d_array(self):
        setup = (
            "    int m[3][4];\n    int i;\n    int j;\n"
            "    for (i = 0; i < 3; i++) {\n"
            "        for (j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }\n"
            "    }\n"
        )
        assert eval_int("m[2][3]", setup) == 23

    def test_array_through_pointer_param(self):
        src = r"""
        int sum(int *data, int n) {
            int total;
            int i;
            total = 0;
            for (i = 0; i < n; i++) { total += data[i]; }
            return total;
        }
        int main(void) {
            int arr[5];
            int i;
            for (i = 0; i < 5; i++) { arr[i] = i + 1; }
            printf("%d\n", sum(arr, 5));
            return 0;
        }
        """
        assert run_c(src).output.strip() == "15"


class TestStructs:
    def test_member_access(self):
        src = r"""
        struct point { int x; int y; };
        int main(void) {
            struct point p;
            p.x = 3;
            p.y = 4;
            printf("%d\n", p.x * p.x + p.y * p.y);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "25"

    def test_arrow_access(self):
        src = r"""
        struct pair { int a; int b; };
        int main(void) {
            struct pair p;
            struct pair *q;
            q = &p;
            q->a = 6;
            q->b = 7;
            printf("%d\n", q->a * q->b);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "42"

    def test_struct_with_double_and_padding(self):
        src = r"""
        struct mixed { char c; double d; int i; };
        int main(void) {
            struct mixed m;
            m.c = 'x';
            m.d = 2.5;
            m.i = 4;
            printf("%c %f %d\n", m.c, m.d, m.i);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "x 2.500000 4"


class TestConstantsAndSizeof:
    def test_char_literal(self):
        assert eval_int("'A'") == 65
        assert eval_int("'\\n'") == 10

    def test_hex_and_octal(self):
        assert eval_int("0x1F") == 31
        assert eval_int("010") == 8
        assert eval_float("0x1.8p1") == 3.0

    def test_sizeof_type(self):
        assert eval_int("(int) sizeof(int)") == 4
        assert eval_int("(int) sizeof(double)") == 8
        assert eval_int("(int) sizeof(char *)") == 8

    def test_sizeof_variable(self):
        setup = "    int arr[10];\n    arr[0] = 0;\n"
        assert eval_int("(int) sizeof arr", setup) == 40

    def test_enum_constants(self):
        src = r"""
        enum color { RED, GREEN = 5, BLUE };
        int main(void) {
            printf("%d %d %d\n", RED, GREEN, BLUE);
            return 0;
        }
        """
        assert run_c(src).output.strip() == "0 5 6"


class TestConstantExpressions:
    """File-scope initializers and array sizes fold with the IL's own
    arithmetic, so they agree with the same expression at run time."""

    @staticmethod
    def global_value(expr: str, ctype: str = "long", fmt: str = "%ld") -> str:
        src = (
            f"{ctype} g = {expr};\n"
            f'int main(void) {{ printf("{fmt}\\n", g); return 0; }}\n'
        )
        return run_c(src).output.strip()

    @pytest.mark.parametrize(
        "source",
        ["long g = 1 / 0;", "int a[5 % 0];", "long g = 1 % 0;", "double d = 1.0 / 0.0;"],
    )
    def test_trapping_constant_is_a_frontend_error(self, source):
        with pytest.raises(FrontendError) as excinfo:
            compile_c(source + "\nint main(void) { return 0; }\n", name="k")
        assert excinfo.value.coord is not None
        assert str(excinfo.value).startswith("k:1:")

    def test_integer_division_is_exact(self):
        assert self.global_value("9007199254740993 / 1") == "9007199254740993"
        assert self.global_value("-9007199254740993 / 3") == "-3002399751580331"

    def test_shift_wraps_like_the_runtime(self):
        setup = "    long one = 1;\n    long count = 70;\n"
        assert self.global_value("1 << 70") == str(eval_int("one << count", setup))
        assert self.global_value("1 << 70") == "64"

    def test_out_of_range_float_cast_is_a_frontend_error(self):
        with pytest.raises(FrontendError, match="float-to-int conversion"):
            compile_c("long g = (long)(1e308 * 10.0);\nint main(void) { return 0; }\n")

    def test_negative_zero_keeps_its_sign(self):
        assert self.global_value("-0.0", "double", "%f") == "-0.000000"

    def test_literals_are_64_bit_values_everywhere(self):
        big = "0x8000000000000000"
        assert self.global_value(big) == "-9223372036854775808"
        local = run_c(expr_program("x < 0 ? x : 0", f"    long x = {big};\n", "%ld"))
        assert local.output == "-9223372036854775808\n"
        assert self.global_value("0xFFFFFFFFFFFFFFFF") == "-1"

    #: array-size, enumerator, `case` and `sizeof` errors, each on line 2
    CONSTANT_EXPRESSION_ERRORS = [
        ("int a[2.5];", "array size is not an integer constant"),
        ("int a[1e400];", "array size is not an integer constant"),
        ("int a[-1];", "array size is negative"),
        ("int a[(int)1e400];", "constant expression: float-to-int conversion"),
        ("int a[1 / 0];", "constant expression: integer division by zero"),
        ("int a[n];", "'n' is not a compile-time constant"),
        ("int a[1 << 2.0];", "invalid operands to binary <<"),
        ("int a[~1.0];", "invalid operands to unary ~"),
        ("int a[5 % 2.0];", "invalid operands to binary %"),
        ("int a[1 && 2];", "constant binary '&&'"),
        ("int a['ab'];", "multi-character constant 'ab'"),
        ("enum { A = 1.5 };", "enumerator value is not an integer constant"),
        ("enum { A = 1e400 };", "enumerator value is not an integer constant"),
        ("int f(void) {\nswitch (1) { case 1e400: return 1; } return 0; }",
         "case label is not an integer constant"),
        ("int f(void) {\nswitch (1) { case 0.5: return 1; } return 0; }",
         "case label is not an integer constant"),
        # sizeof, in a constant expression and at run time
        ("int f(void);\nint a[sizeof(f)];", "sizeof applied to a function"),
        ("int a[sizeof(int (void))];", "sizeof applied to a function"),
        ("int b;\nint a[sizeof(b + 1)];", "unsupported sizeof operand"),
        ("int f(void) {\nreturn sizeof(f); }", "sizeof applied to a function"),
        ("int f(int x) {\nreturn sizeof(x + 1); }", "unsupported sizeof operand"),
    ]

    @pytest.mark.parametrize("source,message", CONSTANT_EXPRESSION_ERRORS)
    def test_constant_expression_errors_have_coordinates(self, source, message):
        if "\n" not in source:
            source = "\n" + source
        with pytest.raises(FrontendError) as excinfo:
            compile_c(source + "\nint main(void) { return 0; }\n", name="k")
        assert excinfo.value.coord is not None
        assert str(excinfo.value).startswith("k:2:")
        assert message in str(excinfo.value)


class TestIntegerOnlyOperators:
    """``%``, ``<<``, ``>>``, ``&``, ``|``, ``^`` and ``~`` take integer
    operands only: a floating operand is an error at the operator, in a
    function and in a constant expression alike."""

    @pytest.mark.parametrize(
        "expr",
        ["x << d", "x >> d", "7 & d", "x | d", "d ^ 1", "x % d", "~d", "p & 1"],
    )
    def test_runtime_operand_rejected(self, expr):
        setup = "    long x = 3;\n    double d = 2.5;\n    long *p = &x;\n"
        with pytest.raises(FrontendError) as excinfo:
            compile_c(expr_program(expr, setup), name="ops")
        assert str(excinfo.value).startswith("ops:5:")
        assert "invalid operands to" in str(excinfo.value)

    @pytest.mark.parametrize("op", ["%=", "<<=", ">>=", "&=", "|=", "^="])
    def test_compound_assignment_rejected(self, op):
        setup = f"    long x = 3;\n    x {op} 2.0;\n"
        with pytest.raises(FrontendError, match=r"ops:3:5: invalid operands to binary"):
            compile_c(expr_program("x", setup), name="ops")

    @pytest.mark.parametrize("expr", ["1 << 2.0", "7 & 2.5", "~1.5", "5 % 2.0"])
    def test_constant_operand_rejected(self, expr):
        with pytest.raises(FrontendError, match=r"ops:1:1[01]: invalid operands to"):
            compile_c(f"long g = {expr};\nint main(void) {{ return 0; }}\n",
                      name="ops")

    def test_integer_operands_still_fold_and_run(self):
        assert TestConstantExpressions.global_value("(long)2.0 << 3") == "16"
        assert eval_int("(long)d & 6", "    double d = 7.5;\n") == 6


class TestErrors:
    def test_undeclared_variable(self):
        with pytest.raises(FrontendError):
            run_c("int main(void) { return nope; }")

    def test_undeclared_function(self):
        with pytest.raises(FrontendError):
            run_c("int main(void) { return mystery(1); }")

    def test_union_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            run_c("union u { int a; }; int main(void) { return 0; }")

    def test_kr_parameter_list_is_typed_with_coordinate(self):
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            run_c("int f(a, b) { return 0; }")
        assert excinfo.value.coord is not None
        assert "K&R" in str(excinfo.value)

    def test_unbalanced_braces_are_typed_with_coordinate(self):
        source = "int main(void) { int x; { x = 1; return x; }\n}\n}\n{"
        with pytest.raises(FrontendError) as excinfo:
            run_c(source)
        assert excinfo.value.coord is not None
        assert "parse error: malformed input" in str(excinfo.value)

    def test_assignment_to_undeclared_name_has_coordinate(self):
        source = "int bump(void) {\n    counter = counter + 1;\n    return counter;\n}\n"
        with pytest.raises(FrontendError) as excinfo:
            compile_c(source, name="bump")
        assert str(excinfo.value) == "bump:2:5: undeclared identifier 'counter'"

    def test_parse_error_without_pycparser_line_gets_lexer_line(self):
        source = "int three(void) {\n    return 3 +;\n}\n"
        with pytest.raises(FrontendError) as excinfo:
            compile_c(source, name="three")
        assert str(excinfo.value) == "three:2: parse error: Invalid expression"
