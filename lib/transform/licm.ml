(** Loop-invariant code motion for pure expressions.

    Hoists non-trivial subexpressions that are invariant with respect to a
    loop into fresh temporaries computed before the loop. Array reads are
    hoistable only when no write in the loop may touch the array (the
    invariant-access *memory* motion with store sinking lives in
    {!Scalar_replace}, which also handles the write side). *)

open Ir
open Ast

let scalars_assigned_in body =
  Ast.fold_stmts
    ~stmt:(fun acc s ->
      match s with
      | Assign (Lvar v, _) -> v :: acc
      | Rotate rs -> rs @ acc
      | _ -> acc)
    ~expr:(fun acc _ -> acc)
    [] body

(** Distinct arrays stored to: one name per array, not per store, so a
    membership test stays O(arrays) on a heavily unrolled body. *)
let arrays_written_in body =
  List.sort_uniq String.compare
    (Ast.fold_stmts
       ~stmt:(fun acc s ->
         match s with Assign (Larr (a, _), _) -> a :: acc | _ -> acc)
       ~expr:(fun acc _ -> acc)
       [] body)

(** Is [e] invariant in the loop and side-effect free? Indices of loops
    nested inside also vary per iteration, so they count as variant.
    Membership sets are hashed: the assigned-scalar list of a heavily
    unrolled body is as long as the body itself, and this test runs per
    expression node. *)
let invariant ~variant ~assigned ~written e =
  let rec go e =
    match e with
    | Int _ -> true
    | Var v -> (not (Hashtbl.mem variant v)) && not (Hashtbl.mem assigned v)
    | Arr (a, subs) -> (not (Hashtbl.mem written a)) && List.for_all go subs
    | Bin (_, a, b) -> go a && go b
    | Un (_, a) -> go a
    | Cond (c, t, e) -> go c && go t && go e
  in
  go e

let set_of_list l =
  let t = Hashtbl.create (max 16 (List.length l)) in
  List.iter (fun x -> Hashtbl.replace t x ()) l;
  t

(** Worth hoisting: anything costlier than a leaf or a leaf-plus-constant. *)
let non_trivial e =
  match e with
  | Int _ | Var _ -> false
  | Bin ((Add | Sub), Var _, Int _) -> false
  | _ -> true

let run (k : kernel) : kernel =
  let names = Names.of_kernel k in
  let new_scalars = ref [] in
  let declare ty =
    let v = Names.fresh names "t" in
    new_scalars :=
      { s_name = v; s_elem = ty; s_kind = Temp; s_span = None } :: !new_scalars;
    v
  in
  (* Innermost-first over statement lists, so that an expression hoisted
     out of the inner loop can be hoisted again out of the outer one. *)
  let rec body_stmts (body : stmt list) : stmt list =
    List.concat_map
      (fun s ->
        match s with
        | For l ->
            let l = { l with body = body_stmts l.body } in
            let pre, l = hoist_out l in
            pre @ [ For l ]
        | If (c, t, e) -> [ If (c, body_stmts t, body_stmts e) ]
        | Assign _ | Rotate _ -> [ s ])
      body
  and hoist_out (l : loop) : stmt list * loop =
    let assigned = set_of_list (scalars_assigned_in l.body) in
    let written = set_of_list (arrays_written_in l.body) in
    let variant = set_of_list (l.index :: Ast.bound_indices l.body) in
    let hoisted = ref [] in
    let rec rewrite e =
      if non_trivial e && invariant ~variant ~assigned ~written e then begin
        match List.assoc_opt e !hoisted with
        | Some v -> Var v
        | None ->
            let v = declare (Ast.result_type k e) in
            hoisted := (e, v) :: !hoisted;
            Var v
      end
      else
        match e with
        | Int _ | Var _ -> e
        | Arr (a, subs) ->
            let subs' = Ast.map_sharing rewrite subs in
            if subs' == subs then e else Arr (a, subs')
        | Bin (op, a, b) ->
            let a' = rewrite a and b' = rewrite b in
            if a' == a && b' == b then e else Bin (op, a', b')
        | Un (op, a) ->
            let a' = rewrite a in
            if a' == a then e else Un (op, a')
        | Cond (c, t, e') ->
            let c' = rewrite c and t' = rewrite t and e'' = rewrite e' in
            if c' == c && t' == t && e'' == e' then e else Cond (c', t', e'')
    in
    let rec rw_stmt s =
      match s with
      | Assign (Lvar v, e) ->
          let e' = rewrite e in
          if e' == e then s else Assign (Lvar v, e')
      | Assign (Larr (a, subs), e) ->
          let subs' = Ast.map_sharing rewrite subs in
          let e' = rewrite e in
          if subs' == subs && e' == e then s else Assign (Larr (a, subs'), e')
      | If (c, t, e) ->
          let c' = rewrite c in
          let t' = Ast.map_sharing rw_stmt t in
          let e' = Ast.map_sharing rw_stmt e in
          if c' == c && t' == t && e' == e then s else If (c', t', e')
      | For _ ->
          (* Inner loops were processed on the way up; expressions that
             could leave them already sit directly in this body. *)
          s
      | Rotate _ -> s
    in
    let body = Ast.map_sharing rw_stmt l.body in
    let pre = List.rev_map (fun (e, v) -> Assign (Lvar v, e)) !hoisted in
    (pre, { l with body })
  in
  let body = body_stmts k.k_body in
  { k with k_body = body; k_scalars = k.k_scalars @ List.rev !new_scalars }
