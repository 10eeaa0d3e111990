(** Recursive-descent parser for the C subset of the paper (Section 2.4):
    declarations of scalar and multi-dimensional array variables followed
    by loop-nest code. Loop bounds must fold to constants; strides are
    fixed. The intrinsics [abs], [min], [max] and the compiler-output
    construct [rotate_registers] are accepted so pretty-printed
    transformed code round-trips. Fixed-width type names ([int16],
    [uint8], ...) are accepted alongside the C spellings. *)

exception Error of Lexer.pos * string

(** Parse a kernel from source text; raises {!Error} or {!Lexer.Error}
    with a position on malformed input. Semantic checks (declarations,
    subscript arity, index discipline) are included; a kernel with no
    statements is rejected. *)
val kernel_of_string : name:string -> string -> Ir.Ast.kernel

(** [Result]-returning variant with a rendered ["line:col: message"]
    diagnostic. *)
val kernel_of_string_res :
  name:string -> string -> (Ir.Ast.kernel, string) result
