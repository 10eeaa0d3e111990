(** Loop-invariant code motion for pure expressions.

    Hoists non-trivial subexpressions invariant with respect to a loop
    into fresh temporaries computed before it. Array reads are hoistable
    only when no write in the loop may touch the array; the
    invariant-access *memory* motion with store sinking lives in
    {!Scalar_replace}. Temporaries are declared at the expression's full
    result width so materialising them cannot change wrap-around
    behaviour. *)

open Ir

val scalars_assigned_in : Ast.stmt list -> string list

(** Arrays stored to anywhere in the body, each named once. *)
val arrays_written_in : Ast.stmt list -> string list
val run : Ast.kernel -> Ast.kernel
