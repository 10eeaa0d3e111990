(** Front-end tests: lexing, parsing, declaration and semantic checks of
    the C subset. *)

open Ir

let parse src = Frontend.Parser.kernel_of_string_res ~name:"t" src

let parse_ok src =
  match parse src with
  | Ok k -> k
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let parse_err src =
  match parse src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

(* ------------------------------------------------------------------ *)

let test_kernels_parse () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      Alcotest.(check bool) (name ^ " has a loop nest") true
        (Loop_nest.nest_depth k.Ast.k_body >= 2))
    Kernels.names

let test_declarations () =
  let k =
    parse_ok
      {| int A[4][8]; unsigned char x; short s, t; int total;
         total = 0; |}
  in
  let a = Option.get (Ast.find_array k "A") in
  Alcotest.(check (list int)) "dims" [ 4; 8 ] a.Ast.a_dims;
  Alcotest.(check int) "elem width" 32 (Dtype.bits a.Ast.a_elem);
  let x = Option.get (Ast.find_scalar k "x") in
  Alcotest.(check bool) "unsigned char" true
    (Dtype.bits x.Ast.s_elem = 8 && not (Dtype.is_signed x.Ast.s_elem));
  let s = Option.get (Ast.find_scalar k "s") in
  Alcotest.(check int) "short" 16 (Dtype.bits s.Ast.s_elem)

let test_loop_forms () =
  let k =
    parse_ok
      {| int a[64];
         for (i = 0; i < 8; i++) a[i] = i;
         for (j = 0; j <= 7; j += 2) a[j] = j;
         for (m = 2; m < 10; m = m + 4) a[m] = m; |}
  in
  match k.Ast.k_body with
  | [ Ast.For l1; Ast.For l2; Ast.For l3 ] ->
      Alcotest.(check (pair int int)) "i++ bounds" (0, 8) (l1.lo, l1.hi);
      Alcotest.(check int) "i++ step" 1 l1.step;
      Alcotest.(check (pair int int)) "<= becomes exclusive" (0, 8) (l2.lo, l2.hi);
      Alcotest.(check int) "+= step" 2 l2.step;
      Alcotest.(check int) "m = m + 4 step" 4 l3.step
  | _ -> Alcotest.fail "expected three loops"

let test_precedence () =
  let k = parse_ok {| int a[1]; a[0] = 1 + 2 * 3 - 4 / 2; |} in
  let st = Eval.run k in
  Alcotest.(check (array int)) "C precedence" [| 5 |]
    (Option.get (Eval.array_value st "a"))

let test_ternary_and_calls () =
  let k =
    parse_ok
      {| int a[3];
         a[0] = 1 < 2 ? 10 : 20;
         a[1] = min(3, max(1, 7));
         a[2] = abs(0 - 9); |}
  in
  let st = Eval.run k in
  Alcotest.(check (array int)) "intrinsics" [| 10; 3; 9 |]
    (Option.get (Eval.array_value st "a"))

let test_comments_and_whitespace () =
  let k =
    parse_ok
      "int a[1]; // line comment\n/* block\n comment */ a[0] = /* inline */ 7;"
  in
  let st = Eval.run k in
  Alcotest.(check (array int)) "parsed through comments" [| 7 |]
    (Option.get (Eval.array_value st "a"))

let test_rotate_registers () =
  let k =
    parse_ok
      {| int r0, r1; int a[1];
         r0 = 1; r1 = 2;
         rotate_registers(r0, r1);
         a[0] = r0 * 10 + r1; |}
  in
  let st = Eval.run k in
  Alcotest.(check (array int)) "rotation applied" [| 21 |]
    (Option.get (Eval.array_value st "a"))

(* ------------------------------------------------------------------ *)
(* Errors *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_errors () =
  let cases =
    [
      ("int a[4]; a[0] = b;", "undeclared");
      ("int a[4]; b[0] = 1;", "undeclared");
      ("int a[4]; for (i = 0; i < n; i++) a[i] = 0;", "constant");
      ("int a[4]; for (i = 0; j < 4; i++) a[i] = 0;", "index");
      ("int a[4]; for (i = 4; i < 0; i += 0) a[i] = 0;", "positive");
      ("int a[4]; a[0] = 1", "expected ';'");
      ("int a[4][2]; a[0] = 1;", "subscript");
      ("int a[4]; int a;", "duplicate");
      ("int a[4]; for (i = 0; i < 2; i++) for (i = 0; i < 2; i++) a[i] = 0;", "shadow");
      ("int a[4]; a[0] = foo(1);", "unknown function");
      ( "int a[4]; int x; for (i = 0; i < 4; i++) if (x > 0) for (k = 0; k \
         < 2; k++) a[i] = k;",
        "conditional" );
    ]
  in
  List.iter
    (fun (src, expect) ->
      let msg = parse_err src in
      Alcotest.(check bool)
        (Printf.sprintf "%S reports %s (got %s)" src expect msg)
        true (contains msg expect))
    cases

let test_error_position () =
  let msg = parse_err "int a[4];\n  a[0] = @;" in
  Alcotest.(check bool) ("position points to line 2: " ^ msg) true
    (contains msg "2:")

(* A kernel with no statements has nothing to explore: rejected with a
   position, not parsed into a zero-cycle design. *)
let test_empty_kernel () =
  List.iter
    (fun (src, line) ->
      let msg = parse_err src in
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected at line %d (got %s)" src line msg)
        true
        (contains msg "no statements"
        && contains msg (Printf.sprintf "%d:" line)))
    [
      ("", 1);
      ("  \n/* only a comment */\n", 3);
      ("int a[4];", 1);
      ("int a[4];\nunsigned char x, y;\n", 3);
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "frontend"
    [
      ( "parse",
        [
          Alcotest.test_case "built-in kernels" `Quick test_kernels_parse;
          Alcotest.test_case "declarations" `Quick test_declarations;
          Alcotest.test_case "loop forms" `Quick test_loop_forms;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "ternary and intrinsics" `Quick test_ternary_and_calls;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "rotate_registers" `Quick test_rotate_registers;
        ] );
      ( "errors",
        [
          Alcotest.test_case "diagnostics" `Quick test_errors;
          Alcotest.test_case "positions" `Quick test_error_position;
          Alcotest.test_case "empty kernel" `Quick test_empty_kernel;
        ] );
    ]
