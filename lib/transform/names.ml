(** Fresh-name generation that avoids every identifier already present in
    a kernel (arrays, scalars, loop indices). *)

open Ir

type t = {
  used : (string, unit) Hashtbl.t;
  next : (string, int) Hashtbl.t;
      (** per base: every suffix below this one is taken. Names are only
          ever reserved, never released, so the smallest free suffix of
          a base never decreases and the probe can resume here. *)
}

let of_kernel (k : Ast.kernel) : t =
  let used = Hashtbl.create 64 in
  List.iter (fun (a : Ast.array_decl) -> Hashtbl.replace used a.a_name ()) k.k_arrays;
  List.iter (fun (s : Ast.scalar_decl) -> Hashtbl.replace used s.s_name ()) k.k_scalars;
  List.iter (fun i -> Hashtbl.replace used i ()) (Ast.bound_indices k.k_body);
  { used; next = Hashtbl.create 16 }

let reserve t name = Hashtbl.replace t.used name ()

(** [fresh t base] returns [base] if unused, otherwise [base_0], [base_1], ...
    The result is reserved. *)
let fresh t base =
  let name =
    if not (Hashtbl.mem t.used base) then base
    else
      let rec go n =
        let cand = base ^ "_" ^ string_of_int n in
        if Hashtbl.mem t.used cand then go (n + 1)
        else begin
          Hashtbl.replace t.next base (n + 1);
          cand
        end
      in
      go (Option.value ~default:0 (Hashtbl.find_opt t.next base))
  in
  reserve t name;
  name
