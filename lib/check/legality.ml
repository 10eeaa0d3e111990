(** Per-transform legality predicates, checked *before* the rewrite.

    The pipeline's stages each have a static precondition (Section 4 of
    the paper): unroll-and-jam must not reverse a dependence when the
    unrolled outer iterations are fused; scalar replacement requires
    consistent dependence distances within a uniformly generated set;
    tiling and peeling require their loop to sit on the nest spine.

    Since the flow-graph refactor the jam and replaceability predicates
    consult dataflow facts ({!Analysis.Flowgraph}) *alongside* the
    dependence analysis, and are strictly stronger than the old
    dependence-only forms (which stay exposed as [*_dependence] — the
    test suite cross-validates [new => old] on random kernels):

    - [jam_unroll_legal] additionally rejects loop-carried {e scalar}
      recurrences that are not commutative/associative reductions. The
      array dependence test cannot see them — [s = s * 2 + A[i][j]]
      under unroll-and-jam silently reorders the chain.
    - [replaceable_group] additionally rejects groups whose array is
      also written (for read sets) or read (for write sets) through a
      {e different} access pattern that reaches the group's accesses:
      caching the set in registers would miss those foreign accesses. *)

open Ir
module Dependence = Analysis.Dependence
module Reuse = Analysis.Reuse
module Flowgraph = Analysis.Flowgraph

let pass = "legality"

let diagf ?span sev fmt = Diag.diagf ?span sev ~pass fmt

(* ------------------------------------------------------------------ *)
(* Dependence-only predicates (the pre-flowgraph forms) *)

(** Fusing the unrolled outer iterations preserves every *array*
    dependence. Same predicate the pipeline consults
    ({!Transform.Unroll.jam_legal}); conservative on coupled distances,
    blind to scalar recurrences. *)
let jam_unroll_legal_dependence = Transform.Unroll.jam_legal

(** Every pair of members of the uniformly generated set has a
    consistent (exact or unconstrained) dependence distance. *)
let replaceable_group_dependence (_k : Ast.kernel) (g : Reuse.group) : bool =
  let members = Array.of_list g.Reuse.members in
  let n = Array.length members in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if !ok then
        match Dependence.ug_distance_vector members.(i) members.(j) with
        | Dependence.Independent -> ()
        | Dependence.Distance entries ->
            if
              List.exists
                (function
                  | Dependence.Coupled -> true
                  | Dependence.Exact _ | Dependence.Any -> false)
                entries
            then ok := false
        | Dependence.Unknown -> ok := false
    done
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Scalar recurrences under unroll-and-jam *)

let commutative_assoc = function
  | Ast.Add | Ast.Mul | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Min | Ast.Max ->
      true
  | _ -> false

let count_var s e =
  Ast.fold_expr
    (fun n e -> match e with Ast.Var v when String.equal v s -> n + 1 | _ -> n)
    0 e

(* [s = s ⊕ e] with ⊕ commutative and associative and [e] independent of
   [s] — the one loop-carried scalar shape unroll-and-jam may reorder
   freely (the accumulated multiset is permutation-invariant). *)
let reduction_op s (rhs : Ast.expr) : Ast.binop option =
  match rhs with
  | Ast.Bin (op, a, b) when commutative_assoc op ->
      if a = Ast.Var s && count_var s b = 0 then Some op
      else if b = Ast.Var s && count_var s a = 0 then Some op
      else None
  | _ -> None

(* Is every body occurrence of [s] part of one single-operator
   reduction? Any other read (a guard, a subscript, an array store of
   the running value) observes intermediate sums, which jamming
   permutes. *)
let reduction_only (g : Flowgraph.t) (body : Flowgraph.node list) (s : string)
    : bool =
  let ok = ref true and op = ref None in
  List.iter
    (fun (nd : Flowgraph.node) ->
      if !ok then
        match nd.Flowgraph.kind with
        | Flowgraph.Assign (Ast.Lvar x, rhs) when String.equal x s -> (
            match reduction_op s rhs with
            | Some o -> (
                match !op with
                | None -> op := Some o
                | Some o' -> if o <> o' then ok := false)
            | None -> ok := false)
        | Flowgraph.Header _ -> ()
        | _ ->
            if
              List.exists
                (fun u -> Flowgraph.equal_loc u (Flowgraph.Scalar s))
                (Flowgraph.uses g nd.Flowgraph.id)
            then ok := false)
    body;
  !ok

(** First scalar whose loop-carried dependence chain unroll-and-jam
    would reorder, as [(loop index, scalar)]; [None] when every carried
    scalar is a plain reduction. Only non-innermost loops matter: the
    innermost-only fallback unrolls within one iteration and never
    reorders a chain. *)
let scalar_jam_hazard ?cost (g : Flowgraph.t) : (string * string) option =
  let live = Flowgraph.live ?cost g in
  let result = ref None in
  Array.iter
    (fun (hn : Flowgraph.node) ->
      if !result = None && g.Flowgraph.reachable.(hn.Flowgraph.id) then
        match hn.Flowgraph.kind with
        | Flowgraph.Header l ->
            let body =
              Array.to_list g.Flowgraph.nodes
              |> List.filter (fun (nd : Flowgraph.node) ->
                     nd.Flowgraph.id <> hn.Flowgraph.id
                     && List.memq l nd.Flowgraph.loops)
            in
            let indices =
              l.Ast.index
              :: List.filter_map
                   (fun (nd : Flowgraph.node) ->
                     match nd.Flowgraph.kind with
                     | Flowgraph.Header l' -> Some l'.Ast.index
                     | _ -> None)
                   body
            in
            let is_innermost =
              not
                (List.exists
                   (fun (nd : Flowgraph.node) ->
                     match nd.Flowgraph.kind with
                     | Flowgraph.Header _ -> true
                     | _ -> false)
                   body)
            in
            if not is_innermost then begin
              let body_ids =
                List.map (fun (nd : Flowgraph.node) -> nd.Flowgraph.id) body
              in
              let entries =
                List.filter
                  (fun i -> List.mem i body_ids)
                  g.Flowgraph.succ.(hn.Flowgraph.id)
              in
              let defined =
                body
                |> List.concat_map (fun (nd : Flowgraph.node) ->
                       Flowgraph.defs_at g nd.Flowgraph.id)
                |> List.filter_map (function
                     | Flowgraph.Scalar s -> Some s
                     | _ -> None)
                |> List.sort_uniq compare
              in
              List.iter
                (fun s ->
                  if !result = None && not (List.mem s indices) then
                    let carried =
                      (* live into the body: a body read may see the
                         previous outer iteration's value *)
                      List.exists
                        (fun e ->
                          Flowgraph.LocSet.mem (Flowgraph.Scalar s)
                            live.Flowgraph.before.(e))
                        entries
                    in
                    if carried && not (reduction_only g body s) then
                      result := Some (l.Ast.index, s))
                defined
            end
        | _ -> ())
    g.Flowgraph.nodes;
  !result

(** Dependence preservation *and* no reorderable scalar recurrence. *)
let jam_unroll_legal ?graph ?cost (k : Ast.kernel) : bool =
  jam_unroll_legal_dependence k
  &&
  let g = match graph with Some g -> g | None -> Flowgraph.build ?cost k in
  scalar_jam_hazard ?cost g = None

(* ------------------------------------------------------------------ *)
(* Scalar replacement: foreign accesses through other patterns *)

type replace_verdict =
  | Replaceable
  | Inconsistent_distances
  | Foreign_accesses of string

let linear_parts (fs : Affine.t list) =
  List.map (fun (f : Affine.t) -> Affine.make f.Affine.terms 0) fs

let same_linear fs gs =
  List.length fs = List.length gs && List.for_all2 Affine.equal fs gs

(* How a location relates to a group's access pattern: [`Match] same
   array and same subscript coefficients, [`Foreign] same array through
   another pattern (a whole-array loc counts as both), [`Other] a
   different array or a scalar. *)
let classify ~array ~pattern (l : Flowgraph.loc) =
  match l with
  | Flowgraph.Scalar _ -> `Other
  | Flowgraph.Whole a -> if String.equal a array then `Both else `Other
  | Flowgraph.Cell (a, fs) ->
      if not (String.equal a array) then `Other
      else if same_linear (linear_parts fs) pattern then `Match
      else `Foreign

let matches c = c = `Match || c = `Both
let foreign c = c = `Foreign || c = `Both
let intset_mem = Flowgraph.IntSet.mem

(* A foreign access the cached registers would miss: for a read set, a
   foreign *write* whose definition reaches one of the group's reads
   (the registers would serve a stale value); for a write set, a member
   write reaching a foreign *access* (which would see memory the
   registers have not flushed, or clobber it). *)
let foreign_hazard (g : Reuse.group) (graph : Flowgraph.t)
    (r : Flowgraph.reaching) : string option =
  match
    List.find_opt Analysis.Access.is_affine g.Reuse.members
  with
  | None -> None (* non-affine group: the dependence predicate decides *)
  | Some rep ->
      let pattern = linear_parts (Analysis.Access.affine_exn rep) in
      let array = g.Reuse.array in
      let classify = classify ~array ~pattern in
      let reachable = graph.Flowgraph.reachable in
      let hazard = ref None in
      (match g.Reuse.kind with
      | Analysis.Access.Read ->
          let foreign_defs =
            Array.to_list r.Flowgraph.r_defs
            |> List.filter (fun (d : Flowgraph.def) ->
                   foreign (classify d.Flowgraph.d_loc))
          in
          if foreign_defs <> [] then
            Array.iter
              (fun (nd : Flowgraph.node) ->
                if !hazard = None && reachable.(nd.Flowgraph.id) then
                  List.iter
                    (fun u ->
                      if !hazard = None && matches (classify u) then
                        if
                          List.exists
                            (fun (d : Flowgraph.def) ->
                              intset_mem d.Flowgraph.d_id
                                r.Flowgraph.r_sol.Flowgraph.before.(nd
                                .Flowgraph.id)
                              && Flowgraph.may_alias d.Flowgraph.d_loc u)
                            foreign_defs
                        then
                          hazard :=
                            Some
                              "a write through a different access pattern \
                               reaches the set's reads")
                    (Flowgraph.uses graph nd.Flowgraph.id))
              graph.Flowgraph.nodes
      | Analysis.Access.Write ->
          let member_defs =
            Array.to_list r.Flowgraph.r_defs
            |> List.filter (fun (d : Flowgraph.def) ->
                   matches (classify d.Flowgraph.d_loc))
          in
          Array.iter
            (fun (nd : Flowgraph.node) ->
              if !hazard = None && reachable.(nd.Flowgraph.id) then
                let foreign_here =
                  List.filter
                    (fun l -> foreign (classify l))
                    (Flowgraph.uses graph nd.Flowgraph.id
                    @ Flowgraph.defs_at graph nd.Flowgraph.id)
                in
                if foreign_here <> [] then
                  List.iter
                    (fun (d : Flowgraph.def) ->
                      if
                        !hazard = None
                        && intset_mem d.Flowgraph.d_id
                             r.Flowgraph.r_sol.Flowgraph.before.(nd
                             .Flowgraph.id)
                        && List.exists
                             (Flowgraph.may_alias d.Flowgraph.d_loc)
                             foreign_here
                      then
                        hazard :=
                          Some
                            "the set's writes reach an access through a \
                             different pattern")
                    member_defs)
            graph.Flowgraph.nodes);
      !hazard

(** Dependence-distance consistency *and* no reaching foreign access. *)
let replaceable_verdict ?graph ?cost (k : Ast.kernel) (g : Reuse.group) :
    replace_verdict =
  if not (replaceable_group_dependence k g) then Inconsistent_distances
  else
    let graph =
      match graph with Some g -> g | None -> Flowgraph.build ?cost k
    in
    let r = Flowgraph.reaching ?cost graph in
    match foreign_hazard g graph r with
    | Some why -> Foreign_accesses why
    | None -> Replaceable

let replaceable_group ?graph ?cost (k : Ast.kernel) (g : Reuse.group) : bool =
  replaceable_verdict ?graph ?cost k g = Replaceable

(* ------------------------------------------------------------------ *)

let spine_loop (k : Ast.kernel) index =
  List.find_opt
    (fun (l : Ast.loop) -> l.Ast.index = index)
    (Loop_nest.spine k.Ast.k_body)

(** Strip-mining [index] by [tile] actually splits a loop: the index
    names a spine loop and the tile, rounded down to a divisor of the
    trip exactly as {!Transform.Tiling.strip_mine} rounds it, is a
    proper fraction of the trip. (A trip-5 loop with tile 2 rounds to
    1 and splits nothing, so it is {e not} applicable.) *)
let tiling_applicable (k : Ast.kernel) ~index ~tile : bool =
  match spine_loop k index with
  | None -> false
  | Some l ->
      let trip = Ast.loop_trip l in
      tile > 1 && tile < trip
      &&
      let t = max 1 (min tile trip) in
      let rec down t = if trip mod t = 0 then t else down (t - 1) in
      down t > 1

(** Peeling the first iteration of [index] leaves a well-defined rest
    loop: the index is on the spine with at least one iteration. *)
let peeling_applicable (k : Ast.kernel) ~index : bool =
  match spine_loop k index with
  | None -> false
  | Some l -> Ast.loop_trip l >= 1

(* ------------------------------------------------------------------ *)
(* Joint-configuration verdicts: the pre-enumeration pruner *)

type config_verdict =
  | Config_legal
  | Config_redundant of Transform.Pipeline.config
  | Config_illegal of string

let rec body_has_loop index body =
  List.exists
    (function
      | Ast.For l -> l.Ast.index = index || body_has_loop index l.Ast.body
      | Ast.If (_, t, e) -> body_has_loop index t || body_has_loop index e
      | Ast.Assign _ | Ast.Rotate _ -> false)
    body

(** Whether [c] asks for an actual unroll-and-jam: a factor above 1 on a
    spine loop that is not the innermost (innermost-only unrolling never
    reorders anything). *)
let wants_jam (k : Ast.kernel) (c : Transform.Pipeline.config) : bool =
  let spine = Loop_nest.spine k.Ast.k_body in
  let innermost =
    match List.rev spine with l :: _ -> Some l.Ast.index | [] -> None
  in
  List.exists
    (fun (index, factor) ->
      factor > 1 && Some index <> innermost && spine_loop k index <> None)
    c.Transform.Pipeline.vector

(** Pre-enumeration verdict on one joint configuration, before any
    transform runs (the joint sweep's pruner):

    - [Config_illegal]: evaluating [c] either raises
      [Transform.Pipeline.Stage_error] (a tile index naming no loop of
      the kernel) or silently changes the kernel's results (a requested
      unroll-and-jam whose array dependences are preserved but which
      reorders a non-reduction loop-carried scalar recurrence — the
      hazard the dependence test cannot see). A jam that fails the
      dependence test is {e not} illegal: the pipeline falls back to
      innermost-only unrolling.
    - [Config_redundant canon]: [c] evaluates cleanly but denotes the
      same design as the canonical [canon] (an inapplicable tile
      request; an unroll factor above 1 on a loop the tile renames; a
      peel request with scalar replacement off, which peels nothing).
    - [Config_legal] otherwise.

    The kernel-level half of the jam test (dependence legality and the
    scalar hazard) is computed at most once per application to [k], so
    a sweep applies [config_verdict k] once and shares it across its
    configurations — on one domain: the shared fact is a [Lazy.t]. *)
let config_verdict (k : Ast.kernel) =
  let jam_hazard =
    lazy
      (jam_unroll_legal_dependence k
      && scalar_jam_hazard (Flowgraph.build k) <> None)
  in
  fun (c : Transform.Pipeline.config) : config_verdict ->
    let illegal_tile =
      match c.Transform.Pipeline.tile with
      | Some (index, _) when not (body_has_loop index k.Ast.k_body) ->
          Some
            (Printf.sprintf "tile index '%s' names no loop of the kernel" index)
      | _ -> None
    in
    match illegal_tile with
    | Some why -> Config_illegal why
    | None ->
        if wants_jam k c && Lazy.force jam_hazard then
          Config_illegal
            "unroll-and-jam at this vector reorders a loop-carried scalar \
             recurrence the dependence test cannot see"
        else begin
          (* Canonicalize the redundant spellings. *)
          let tile =
            match c.Transform.Pipeline.tile with
            | Some (index, t)
              when spine_loop k index <> None
                   && not (tiling_applicable k ~index ~tile:t) ->
                None
            | t -> t
          in
          let vector =
            match tile with
            | Some (ti, t) when tiling_applicable k ~index:ti ~tile:t ->
                (* Strip-mining renames the loop, so the unroller ignores
                   its entry: factor 1 is the canonical spelling. *)
                List.map
                  (fun (i, u) -> if i = ti then (i, 1) else (i, u))
                  c.Transform.Pipeline.vector
            | _ -> c.Transform.Pipeline.vector
          in
          let peel =
            (* With replacement off the scalar report is empty, so the
               peel stage has nothing to peel. *)
            c.Transform.Pipeline.peel && c.Transform.Pipeline.scalar_replace
          in
          let canon = { c with Transform.Pipeline.tile; vector; peel } in
          if canon = c then Config_legal else Config_redundant canon
        end

(* ------------------------------------------------------------------ *)

let check ?graph ?cost ?(options : Transform.Pipeline.options option)
    (k : Ast.kernel) : Diag.t list =
  let graph =
    match graph with Some g -> g | None -> Flowgraph.build ?cost k
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let spine = Loop_nest.spine k.Ast.k_body in
  let innermost =
    match List.rev spine with l :: _ -> Some l.Ast.index | [] -> None
  in
  let jam_dep_ok = jam_unroll_legal_dependence k in
  let hazard = scalar_jam_hazard ?cost graph in
  (* Unroll-and-jam. *)
  (match options with
  | None ->
      if not jam_dep_ok then
        add
          (diagf Info
             "unroll-and-jam is not provably legal: outer unrolling will fall \
              back to innermost-only unrolling");
      (match hazard with
      | Some (index, s) when jam_dep_ok ->
          add
            (diagf Info
               "unroll-and-jam is not provably safe: loop '%s' carries a \
                scalar recurrence on '%s' that fusing outer iterations would \
                reorder"
               index s)
      | _ -> ())
  | Some opts ->
      List.iter
        (fun (index, factor) ->
          let span =
            Option.bind (spine_loop k index) (fun l -> l.Ast.l_span)
          in
          if factor <= 0 then
            add
              (diagf Error ?span "unroll factor %d for loop '%s' is not \
                                  positive" factor index)
          else if factor > 1 && spine_loop k index = None then
            add
              (diagf Warning
                 "unroll factor for '%s' names no spine loop; the pipeline \
                  ignores it"
                 index))
        opts.Transform.Pipeline.vector;
      let wants_jam =
        List.exists
          (fun (index, factor) ->
            factor > 1 && Some index <> innermost
            && spine_loop k index <> None)
          opts.Transform.Pipeline.vector
      in
      if wants_jam && not jam_dep_ok then
        add
          (diagf Warning
             "unroll-and-jam at this vector is not provably legal \
              (dependence would be reordered); the pipeline falls back to \
              innermost-only unrolling");
      (match hazard with
      | Some (index, s) when wants_jam && jam_dep_ok ->
          add
            (diagf Warning
               "unroll-and-jam at this vector reorders the scalar recurrence \
                on '%s' carried by loop '%s' (the dependence test cannot see \
                scalar chains); results may differ"
               s index)
      | _ -> ());
      (* Tiling. *)
      match opts.Transform.Pipeline.tile with
      | None -> ()
      | Some (index, tile) ->
          if spine_loop k index = None then
            add
              (diagf Error "tile index '%s' does not name a spine loop" index)
          else if not (tiling_applicable k ~index ~tile) then
            add
              (diagf Warning
                 "tile %d on loop '%s' has no effect (not a proper fraction \
                  of the trip count)"
                 tile index));
  (* Scalar replacement: groups with reuse the rewrite will skip (or
     must skip) are reported as unexploited reuse, with the reason. *)
  let r = lazy (Flowgraph.reaching ?cost graph) in
  List.iter
    (fun (g : Reuse.group) ->
      let distinct = List.length (Reuse.distinct_members g) in
      let has_reuse =
        distinct > 1 || Reuse.invariant_loops g <> []
        || List.length g.Reuse.members > distinct
      in
      if has_reuse then
        let kind_name =
          match g.Reuse.kind with
          | Analysis.Access.Read -> "read"
          | Analysis.Access.Write -> "write"
        in
        if not (replaceable_group_dependence k g) then
          add
            (diagf Info
               "uniformly generated %s set on '%s' (%d members) has \
                inconsistent dependence distances; scalar replacement will \
                skip it"
               kind_name g.Reuse.array
               (List.length g.Reuse.members))
        else
          match foreign_hazard g graph (Lazy.force r) with
          | Some why ->
              add
                (diagf Info
                   "uniformly generated %s set on '%s' (%d members) is not \
                    register-cacheable: %s"
                   kind_name g.Reuse.array
                   (List.length g.Reuse.members)
                   why)
          | None -> ())
    (Reuse.groups k.Ast.k_body);
  List.rev !diags
