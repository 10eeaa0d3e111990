(** Scalar replacement (Section 4 of the paper), extended as the paper
    describes relative to Carr-Kennedy:

    - redundant memory *writes* on output dependences are eliminated
      (store sinking), and
    - reuse is exploited across *all* loops of the nest, not only the
      innermost one, via rotating register banks loaded on the first
      iteration of the carrier loop.

    Four cooperating replacements, applied in this order:

    1. {b Hoist/sink} — an access pattern invariant with respect to every
       loop deeper than level L is loaded into a register on entry to
       level L+1 and (if written) stored back on exit; e.g. the [D[j]]
       accumulator of FIR.
    2. {b Register banks} — a read-only pattern invariant with respect to
       an outer loop [c] but varying inside it has full reuse carried by
       [c]: a bank of registers holds one sweep's worth of data, loaded
       during the first iteration of [c] (guarded by [c == lo], later
       specialised by loop peeling) and rotated once per iteration of the
       innermost varying loop; e.g. the [C] coefficients of FIR.
    3. {b Chains} — members of a pattern at a *consistent* dependence
       distance [d] along the innermost varying loop share a rotating
       chain of [d+1] registers; trailing members refill under a
       [index < lo + d*step] guard, which bounded peeling of the
       innermost loop later removes; e.g. the stencil reads of JAC.
    4. {b Load CSE} — loop-independent reuse: syntactically identical
       reads in one body load once; e.g. [S_0] of FIR.

    Patterns without a consistent distance (the coupled [S[i+j]] reads of
    FIR) keep their memory accesses, exactly as in the paper. *)

open Ir
open Ast
module Access = Analysis.Access

type config = {
  across_loops : bool;
      (** exploit reuse carried by outer loops (banks); on in the paper *)
  chains : bool;  (** exploit consistent innermost-loop distances *)
  max_chain_span : int;
      (** longest reuse distance a chain may bridge; classes spanning
          further keep their memory accesses (peeling that many leading
          iterations must stay cheap) *)
  max_registers : int;  (** budget for introduced registers *)
}

let default_config =
  { across_loops = true; chains = true; max_chain_span = 4; max_registers = 2048 }

type report = {
  hoisted_members : int;
  banks : (string * int) list;  (** array, bank size per member group *)
  chain_lengths : (string * int) list;  (** array, registers per chain *)
  cse_loads : int;
  registers : int;
  carriers : string list;  (** loops whose first iteration should be peeled *)
  innermost_peels : int;
      (** leading iterations of the innermost loop to peel for chains *)
}

let empty_report =
  {
    hoisted_members = 0;
    banks = [];
    chain_lengths = [];
    cse_loads = 0;
    registers = 0;
    carriers = [];
    innermost_peels = 0;
  }

(* ------------------------------------------------------------------ *)
(* Tree-edit helpers, all keyed by spine-loop index *)

(** Replace the (canonical) read expression [Arr (a, subs)] by [Var r] in
    a statement list. *)
let replace_read a subs r body =
  Ast.map_body_exprs
    (fun e -> if e = Arr (a, subs) then Var r else e)
    body

(** Replace writes [A[subs] = e] by [r = e]. *)
let rec replace_write a subs r body =
  List.map
    (fun s ->
      match s with
      | Assign (Larr (a', subs'), e) when a' = a && subs' = subs ->
          Assign (Lvar r, e)
      | Assign _ | Rotate _ -> s
      | If (c, t, el) -> If (c, replace_write a subs r t, replace_write a subs r el)
      | For l -> For { l with body = replace_write a subs r l.body })
    body

(** Insert [pre] at the start and [post] at the end of the body of the
    spine loop named [index]. Shares unchanged subtrees, so an edit that
    leaves the target body physically unchanged (e.g. a scan) returns
    the input body itself. *)
let rec edit_loop_body ~index f body =
  Ast.map_sharing
    (fun s ->
      match s with
      | For l when l.index = index ->
          let b' = f l.body in
          if b' == l.body then s else For { l with body = b' }
      | For l ->
          let b' = edit_loop_body ~index f l.body in
          if b' == l.body then s else For { l with body = b' }
      | If (c, t, e) ->
          let t' = edit_loop_body ~index f t
          and e' = edit_loop_body ~index f e in
          if t' == t && e' == e then s else If (c, t', e')
      | Assign _ | Rotate _ -> s)
    body

let insert_in_loop ~index ~pre ~post body =
  edit_loop_body ~index (fun b -> pre @ b @ post) body

(* ------------------------------------------------------------------ *)
(* Pattern facts *)

(** One uniformly generated pattern of an array, with its distinct
    subscript-expression members. *)
type pattern = {
  array : string;
  elem : Dtype.t;
  members : Access.t list;  (** distinct; execution order *)
  has_reads : bool;
  has_writes : bool;
  any_guarded : bool;
  varying : Ast.loop list;  (** spine loops the pattern varies with, outer first *)
  spine : Ast.loop list;
  spine_only : bool;
      (** every loop the members vary with is on the spine; off-spine
          variation (epilogue loops of a non-divisor unroll factor) makes
          the pattern ineligible for register promotion *)
}

let patterns_of (k : kernel) : pattern list =
  let spine = Loop_nest.spine k.k_body in
  let groups = Analysis.Reuse.groups k.k_body in
  (* Merge the read group and write group of the same array+pattern so
     hoist/sink treats them together. *)
  let same_pat (a : Access.t) (b : Access.t) =
    a.array = b.array
    && Analysis.Reuse.same_pattern (List.map (fun (l : loop) -> l.index) spine) a b
  in
  let merged : Access.t list list =
    List.fold_left
      (fun acc (g : Analysis.Reuse.group) ->
        match g.members with
        | [] -> acc
        | m :: _ ->
            let rec insert = function
              | [] -> [ g.members ]
              | (n :: _ as grp) :: rest when same_pat m n ->
                  (grp @ g.members) :: rest
              | grp :: rest -> grp :: insert rest
            in
            insert acc)
      [] groups
  in
  List.filter_map
    (fun (members : Access.t list) ->
      match members with
      | [] -> None
      | m :: _ ->
          let elem =
            match Ast.find_array k m.array with
            | Some d -> d.a_elem
            | None -> Dtype.int32
          in
          let distinct =
            let seen = Hashtbl.create 16 in
            List.rev
              (List.fold_left
                 (fun acc (a : Access.t) ->
                   let key = (a.subs, a.kind) in
                   if Hashtbl.mem seen key then acc
                   else begin
                     Hashtbl.replace seen key ();
                     a :: acc
                   end)
                 [] members)
          in
          let varying =
            List.filter
              (fun (l : loop) ->
                List.exists (fun a -> Access.varies_with a l.index) members)
              spine
          in
          let spine_names = List.map (fun (l : loop) -> l.index) spine in
          let spine_only =
            List.for_all
              (fun (a : Access.t) ->
                List.for_all
                  (fun idx ->
                    List.mem idx spine_names
                    || not (Access.varies_with a idx))
                  (Access.indices a))
              members
          in
          Some
            {
              array = m.array;
              elem;
              members = distinct;
              has_reads = List.exists Access.is_read members;
              has_writes = List.exists Access.is_write members;
              any_guarded = List.exists (fun (a : Access.t) -> a.guarded) members;
              varying;
              spine;
              spine_only;
            })
    merged

(** Another pattern of the same array may alias this one (no proven
    independence between any cross pair). *)
let may_alias (k : kernel) (p : pattern) (q : pattern) =
  let decl = Ast.find_array k p.array in
  List.exists
    (fun a ->
      List.exists
        (fun b ->
          match Analysis.Dependence.test ?decl a b with
          | Analysis.Dependence.Independent -> false
          | _ -> true)
        q.members)
    p.members

(* ------------------------------------------------------------------ *)

type state = {
  mutable kernel : kernel;
      (** [k_scalars] lags: registers are held in [declared] until [run]
          returns, and nothing in between reads the scalar list *)
  mutable report : report;
  names : Names.t;
  mutable budget : int;
  mutable declared : scalar_decl list;  (** introduced registers, newest first *)
}

let declare st base elem =
  let name = Names.fresh st.names base in
  st.declared <-
    { s_name = name; s_elem = elem; s_kind = Register; s_span = None }
    :: st.declared;
  name

(* ------------------------------------------------------------------ *)
(* Case 1: hoist/sink *)

let try_hoist (k : kernel) (st : state) (p : pattern) (others : pattern list) =
  let spine = p.spine in
  let innermost_spine =
    match List.rev spine with [] -> None | l :: _ -> Some l
  in
  let aliasing = List.exists (fun q -> may_alias k p q) others in
  let deepest_varying =
    (* position of the deepest spine loop the pattern varies with *)
    let rec go i best = function
      | [] -> best
      | (l : loop) :: rest ->
          go (i + 1) (if List.memq l p.varying then i else best) rest
    in
    go 0 (-1) spine
  in
  let applicable =
    spine <> [] && p.spine_only
    && (match innermost_spine with
       | Some l -> not (List.memq l p.varying)
       | None -> false)
    && (not p.any_guarded) && not aliasing
    && st.budget >= List.length p.members
  in
  if not applicable then ()
  else begin
    (* Hoist each distinct member to just inside the deepest varying
       loop (or outside the whole nest when invariant everywhere). *)
    let member_exprs =
      List.rev
        (List.fold_left
           (fun acc (a : Access.t) ->
             if List.exists (fun s -> s = a.Access.subs) acc then acc
             else a.subs :: acc)
           [] p.members)
    in
    List.iter
      (fun subs ->
        let r = declare st (String.lowercase_ascii p.array ^ "_r") p.elem in
        st.budget <- st.budget - 1;
        let load = Assign (Lvar r, Arr (p.array, subs)) in
        let store = Assign (Larr (p.array, subs), Var r) in
        let pre = if p.has_reads || p.has_writes then [ load ] else [] in
        let post = if p.has_writes then [ store ] else [] in
        let body = st.kernel.k_body in
        let body = replace_read p.array subs r body in
        let body = replace_write p.array subs r body in
        let body =
          if deepest_varying < 0 then pre @ body @ post
          else
            let target = (List.nth spine deepest_varying).index in
            insert_in_loop ~index:target ~pre ~post body
        in
        st.kernel <- { st.kernel with k_body = body };
        st.report <-
          {
            st.report with
            hoisted_members = st.report.hoisted_members + 1;
            registers = st.report.registers + 1;
          })
      member_exprs
  end

(* ------------------------------------------------------------------ *)
(* Case 2: register banks across an outer carrier loop *)

let try_bank ~written (st : state) (p : pattern) =
  let spine = p.spine in
  (* Outermost spine loop the pattern is invariant to, with varying loops
     strictly inside it. *)
  let carrier =
    let rec go = function
      | [] -> None
      | (l : loop) :: rest ->
          if
            (not (List.memq l p.varying))
            && List.exists (fun v -> List.memq v rest) p.varying
          then Some l
          else go rest
    in
    go spine
  in
  match carrier with
  | None -> ()
  | Some carrier ->
      let inner_of_carrier =
        let rec drop = function
          | (l : loop) :: rest -> if l.index = carrier.index then rest else drop rest
          | [] -> []
        in
        drop spine
      in
      let varying_inside = List.filter (fun l -> List.memq l p.varying) inner_of_carrier in
      (* Varying loops must be contiguous on the spine below the carrier:
         a non-varying loop *between* two varying ones desynchronises the
         rotation count from the bank size. Non-varying loops below the
         deepest varying loop only repeat full cycles and are fine. *)
      let contiguous =
        let rec check seen_varying = function
          | [] -> true
          | (l : loop) :: rest ->
              let v = List.memq l p.varying in
              if v then check true rest
              else if not seen_varying then check false rest
              else
                (* non-varying after a varying loop: legal only if no
                   varying loop follows *)
                List.for_all (fun m -> not (List.memq m p.varying)) rest
        in
        check false inner_of_carrier
      in
      let bank_n =
        List.fold_left (fun acc l -> acc * Ast.loop_trip l) 1 varying_inside
      in
      let innermost_varying =
        match List.rev varying_inside with [] -> None | l :: _ -> Some l
      in
      let n_regs = bank_n * List.length p.members in
      let applicable =
        p.has_reads && (not p.has_writes) && p.spine_only
        && (not (List.mem p.array written))
        && (not p.any_guarded)
        && contiguous && bank_n > 1
        && innermost_varying <> None
        && st.budget >= n_regs
      in
      if not applicable then ()
      else begin
        let rot_loop = Option.get innermost_varying in
        List.iteri
          (fun mi (a : Access.t) ->
            let base =
              Printf.sprintf "%s_%d" (String.lowercase_ascii p.array) mi
            in
            let regs = List.init bank_n (fun j -> Printf.sprintf "%s_%d" base j) in
            let regs = List.map (fun r -> declare st r p.elem) regs in
            st.budget <- st.budget - bank_n;
            let r0 = List.hd regs in
            let load =
              If
                ( Bin (Eq, Var carrier.index, Int carrier.lo),
                  [ Assign (Lvar r0, Arr (p.array, a.subs)) ],
                  [] )
            in
            let body = st.kernel.k_body in
            (* Replace uses first (the guarded load's own read must stay). *)
            let body =
              edit_loop_body ~index:carrier.index
                (fun b -> replace_read p.array a.subs r0 b)
                body
            in
            let rotate = if bank_n > 1 then [ Rotate regs ] else [] in
            let body =
              insert_in_loop ~index:rot_loop.index ~pre:[ load ] ~post:rotate body
            in
            st.kernel <- { st.kernel with k_body = body };
            st.report <-
              {
                st.report with
                banks = (p.array, bank_n) :: st.report.banks;
                registers = st.report.registers + bank_n;
                carriers =
                  (if List.mem carrier.index st.report.carriers then
                     st.report.carriers
                   else carrier.index :: st.report.carriers);
              })
          p.members
      end

(* ------------------------------------------------------------------ *)
(* Case 3: chains along the innermost varying loop *)

(** Consistent distance (in iterations of [inner]) from member [a] to
    member [b]: requires an exact dependence solution, zero on every
    other varying loop. *)
let chain_distance (inner : loop) (a : Access.t) (b : Access.t) : int option =
  match Analysis.Dependence.ug_distance_vector a b with
  | Analysis.Dependence.Distance entries ->
      let loops = Analysis.Dependence.common_loops a b in
      let rec go loops entries acc =
        match (loops, entries) with
        | [], [] -> acc
        | (l : loop) :: ls, e :: es -> (
            match e with
            | Analysis.Dependence.Exact d when l.index = inner.index ->
                if acc = None then go ls es (Some d) else None
            | Analysis.Dependence.Exact 0 -> go ls es acc
            | Analysis.Dependence.Any -> go ls es acc
            | Analysis.Dependence.Exact _ | Analysis.Dependence.Coupled -> None)
        | _ -> None
      in
      go loops entries None
  | _ -> None

(* Floor division (exact linearity in the divisor direction:
   [fdiv (x + d*g) g = fdiv x g + d] for any integers, which makes the
   residue below a canonical class key). *)
let fdiv x y =
  let q = x / y and r = x mod y in
  if r <> 0 && r < 0 <> (y < 0) then q - 1 else q

(** Cheap chain-class key of a member: the canonical residue of its
    subscript constants modulo the inner-loop shift vector [g]
    (per-dimension coefficient of the inner index times its step), plus
    the member's position [idx] along [g]. Two members of one uniformly
    generated pattern admit a consistent inner-loop distance exactly
    when their residues agree (the distance is then the [idx]
    difference) — the dependence-system view of {!chain_distance}
    restricted to shifts along the inner direction. [None] when the
    member does not vary with the inner loop (no chain possible). *)
let chain_key (inner : loop) (a : Access.t) : (int list * int) option =
  if not (Access.is_affine a) then None
  else begin
    let affs = Access.affine_exn a in
    let g = List.map (fun f -> Affine.coeff f inner.index * inner.step) affs in
    let c = List.map Affine.const_part affs in
    let rec first_nz gs cs =
      match (gs, cs) with
      | gk :: _, ck :: _ when gk <> 0 -> Some (gk, ck)
      | _ :: gs, _ :: cs -> first_nz gs cs
      | _ -> None
    in
    match first_nz g c with
    | None -> None
    | Some (gk0, ck0) ->
        let idx = fdiv ck0 gk0 in
        Some (List.map2 (fun ck gk -> ck - (idx * gk)) c g, idx)
  end

(** Partition a pattern's members into chain classes, each member paired
    with its distance to the class's first member. The fast path buckets
    by {!chain_key} in linear time and verifies every multi-member class
    against the dependence solver (one {!chain_distance} call per
    chained member — coupled subscripts like FIR's [S[i+j]] fail the
    check); on any disagreement the original pairwise solver scan runs
    instead, so the result is the one the quadratic algorithm computes,
    always. *)
let partition_chains (inner : loop) (members : Access.t list) :
    (Access.t * int) list list =
  let slow () =
    let classes : (Access.t * Access.t list) list ref = ref [] in
    List.iter
      (fun (a : Access.t) ->
        let rec insert = function
          | [] -> [ (a, [ a ]) ]
          | (m, cls) :: rest -> (
              match chain_distance inner m a with
              | Some _ -> (m, a :: cls) :: rest
              | None -> (m, cls) :: insert rest)
        in
        classes := insert !classes)
      members;
    List.map
      (fun (_, cls) ->
        match List.rev cls with
        | [] -> []
        | first :: _ as cls ->
            List.map
              (fun a ->
                (a, Option.value ~default:0 (chain_distance inner first a)))
              cls)
      !classes
  in
  let trip = Ast.loop_trip inner in
  let keyed = List.map (fun a -> (a, chain_key inner a)) members in
  if List.exists (fun (_, k) -> k = None) keyed then
    (* No inner variation (or a non-affine member): no pair admits a
       distance, every member is its own class. *)
    List.map (fun (a, _) -> [ (a, 0) ]) keyed
  else begin
    (* Insertion scan as in [slow], with the O(1) key test standing in
       for the solver: same residue, and the distance realizable within
       the trip count (the solver's own admissibility cut). Classes are
       bucketed by residue, each bucket in creation order, so the first
       fitting class of the bucket is the one a scan over all classes
       would pick. *)
    let by_residue : (int list, (int * (Access.t * int) list ref) list) Hashtbl.t =
      Hashtbl.create 16
    in
    let created = ref [] in
    List.iter
      (fun (a, key) ->
        let residue, idx = Option.get key in
        let bucket =
          Option.value ~default:[] (Hashtbl.find_opt by_residue residue)
        in
        match List.find_opt (fun (ridx, _) -> abs (ridx - idx) < trip) bucket with
        | Some (ridx, cls) -> cls := (a, ridx - idx) :: !cls
        | None ->
            let cls = ref [ (a, 0) ] in
            Hashtbl.replace by_residue residue (bucket @ [ (idx, cls) ]);
            created := cls :: !created)
      keyed;
    let classes = List.rev_map (fun cls -> List.rev !cls) !created in
    let verified =
      List.for_all
        (fun cls ->
          match cls with
          | [] | [ _ ] -> true
          | (first, _) :: rest ->
              List.for_all
                (fun (a, d) -> chain_distance inner first a = Some d)
                rest)
        classes
    in
    if verified then classes else slow ()
  end

(** Batched tree edits of the chains phase: replacements and inserts
    accumulated across all patterns, applied in one walk each. *)
type chain_edits = {
  repl : (string * expr list, string * string) Hashtbl.t;
      (** (array, subscripts) -> (target inner-loop index, register) *)
  mutable inserts : (string * stmt list * stmt list) list;
      (** (inner-loop index, pre, post) in reverse application order *)
}

let apply_chain_edits (st : state) (ed : chain_edits) =
  if Hashtbl.length ed.repl = 0 then ()
  else begin
    (* Replace member reads under every loop named by their class's
       inner index — what per-class [edit_loop_body]+[replace_read]
       did, composed. Inserted loads are untouched exactly as in the
       sequential order (each class replaced before inserting, and no
       two classes share a member's (array, subscripts)). *)
    let rec rw_expr stack e =
      match e with
      | Arr (a, subs) -> (
          let subs' = Ast.map_sharing (rw_expr stack) subs in
          match Hashtbl.find_opt ed.repl (a, subs') with
          | Some (idx, r) when List.mem idx stack -> Var r
          | _ -> if subs' == subs then e else Arr (a, subs'))
      | Int _ | Var _ -> e
      | Bin (op, a, b) ->
          let a' = rw_expr stack a and b' = rw_expr stack b in
          if a' == a && b' == b then e else Bin (op, a', b')
      | Un (op, a) ->
          let a' = rw_expr stack a in
          if a' == a then e else Un (op, a')
      | Cond (c, t, e') ->
          let c' = rw_expr stack c
          and t' = rw_expr stack t
          and e'' = rw_expr stack e' in
          if c' == c && t' == t && e'' == e' then e else Cond (c', t', e'')
    in
    let rec rw_stmt stack s =
      match s with
      | Assign (lv, e) ->
          let lv' =
            match lv with
            | Lvar _ -> lv
            | Larr (a, subs) ->
                let subs' = Ast.map_sharing (rw_expr stack) subs in
                if subs' == subs then lv else Larr (a, subs')
          in
          let e' = rw_expr stack e in
          if lv' == lv && e' == e then s else Assign (lv', e')
      | If (c, t, e) ->
          let c' = rw_expr stack c in
          let t' = Ast.map_sharing (rw_stmt stack) t in
          let e' = Ast.map_sharing (rw_stmt stack) e in
          if c' == c && t' == t && e' == e then s else If (c', t', e')
      | For l ->
          let body' = Ast.map_sharing (rw_stmt (l.index :: stack)) l.body in
          if body' == l.body then s else For { l with body = body' }
      | Rotate _ -> s
    in
    let body = Ast.map_sharing (rw_stmt []) st.kernel.k_body in
    (* Stack the per-class inserts: applying classes one at a time
       prepends each later class's loads above the earlier ones and
       appends its rotate below, per target loop. *)
    let ins_tbl : (string, stmt list * stmt list) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (idx, pre, post) ->
        (* [ed.inserts] is in reverse application order, so the first
           entry seen here is the last class applied: its [pre] goes
           outermost (first) and its [post] last. *)
        let cur_pre, cur_post =
          Option.value ~default:([], []) (Hashtbl.find_opt ins_tbl idx)
        in
        Hashtbl.replace ins_tbl idx (cur_pre @ pre, post @ cur_post))
      ed.inserts;
    let rec ins_stmt s =
      match s with
      | For l -> (
          let body' = Ast.map_sharing ins_stmt l.body in
          match Hashtbl.find_opt ins_tbl l.index with
          | Some (pre, post) -> For { l with body = pre @ body' @ post }
          | None -> if body' == l.body then s else For { l with body = body' })
      | If (c, t, e) ->
          let t' = Ast.map_sharing ins_stmt t in
          let e' = Ast.map_sharing ins_stmt e in
          if t' == t && e' == e then s else If (c, t', e')
      | Assign _ | Rotate _ -> s
    in
    st.kernel <- { st.kernel with k_body = Ast.map_sharing ins_stmt body }
  end

let try_chains ~(config : config) ~written (st : state) (ed : chain_edits)
    (p : pattern) =
  let innermost_varying =
    match List.rev p.varying with [] -> None | l :: _ -> Some l
  in
  let spine_innermost =
    match List.rev p.spine with [] -> None | l :: _ -> Some l
  in
  match (innermost_varying, spine_innermost) with
  | Some inner, Some spine_inner
    when inner.index = spine_inner.index
         && p.spine_only
         && p.has_reads && (not p.has_writes)
         && (not (List.mem p.array written))
         && not p.any_guarded ->
      let classes = partition_chains inner p.members in
      List.iter
        (fun cls ->
          match cls with
          | [] | [ _ ] -> () (* single member: CSE handles duplicates *)
          | _ ->
              (* Distance d of member m relative to the first member: m
                 touches the first member's element d iterations later.
                 The member with minimal d reads the *newest* data each
                 iteration and leads the chain; a member at delay k reads
                 what the lead read k iterations ago. *)
              let with_d = List.map (fun (a, d) -> (d, a)) cls in
              let with_d = List.sort (fun (x, _) (y, _) -> compare x y) with_d in
              let dmin = fst (List.hd with_d) in
              let dmax = fst (List.nth with_d (List.length with_d - 1)) in
              let span = dmax - dmin in
              let lead = snd (List.hd with_d) in
              let n_regs = span + 1 in
              if span <= 0 || span > config.max_chain_span || st.budget < n_regs
              then ()
              else begin
                let base = String.lowercase_ascii p.array ^ "_h" in
                let regs =
                  List.init n_regs (fun j ->
                      declare st (Printf.sprintf "%s%d" base j) p.elem)
                in
                st.budget <- st.budget - n_regs;
                let reg j = List.nth regs j in
                (* Loads at the top of the innermost body: lead first,
                   then guarded refills for trailing members. *)
                let lead_load =
                  Assign (Lvar (reg span), Arr (p.array, lead.Access.subs))
                in
                let refills =
                  List.filter_map
                    (fun (d, (a : Access.t)) ->
                      let delay = d - dmin in
                      if delay = 0 then None
                      else
                        Some
                          (If
                             ( Bin
                                 ( Lt,
                                   Var inner.index,
                                   Int (inner.lo + (delay * inner.step)) ),
                               [ Assign (Lvar (reg (span - delay)), Arr (p.array, a.subs)) ],
                               [] )))
                    with_d
                in
                List.iter
                  (fun (d, (a : Access.t)) ->
                    let delay = d - dmin in
                    Hashtbl.replace ed.repl (p.array, a.Access.subs)
                      (inner.index, reg (span - delay)))
                  with_d;
                ed.inserts <-
                  (inner.index, lead_load :: refills, [ Rotate regs ])
                  :: ed.inserts;
                st.report <-
                  {
                    st.report with
                    chain_lengths = (p.array, n_regs) :: st.report.chain_lengths;
                    registers = st.report.registers + n_regs;
                    innermost_peels = max st.report.innermost_peels span;
                  }
              end)
        classes
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Case 4: element replacement within the innermost body.

   Accesses to one array element (same canonical subscripts) repeated in
   the innermost body collapse onto a register: read-only groups load
   once (the paper's loop-independent [S_0] of FIR); read-modify-write
   groups (an accumulator whose carrying loop was fully unrolled) load
   once, accumulate in the register, and store once at the end of the
   body — the within-body face of redundant-write elimination. *)

(** All accesses of [array] anywhere in the body belong to one uniformly
    generated pattern, so distinct constant offsets address distinct
    elements and same-element groups are exact. *)
let array_single_pattern (st : state) array =
  let accesses = Access.collect st.kernel.k_body in
  let of_array = List.filter (fun (a : Access.t) -> a.Access.array = array) accesses in
  let indices =
    List.sort_uniq String.compare (List.concat_map Access.indices of_array)
  in
  match of_array with
  | [] -> true
  | first :: rest ->
      Access.is_affine first
      && List.for_all (fun a -> Analysis.Reuse.same_pattern indices first a) rest

let cse_loads (st : state) =
  let written = Licm.arrays_written_in st.kernel.k_body in
  let spine = Loop_nest.spine st.kernel.k_body in
  let loop_free =
    not
      (List.exists
         (function Ast.For _ -> true | _ -> false)
         st.kernel.k_body)
  in
  match (List.rev spine, loop_free) with
  | [], false -> ()
  | target, _ ->
      (* Scan the innermost body in document order, recording for each
         (array, subs) element: occurrence count, writes, whether the
         first occurrence is an unguarded write, guarded uses. *)
      let stats : (string * expr list, int * bool * bool * bool) Hashtbl.t =
        Hashtbl.create 16
      in
      let order : (string * expr list) list ref = ref [] in
      let note key ~write ~guarded =
        let count, has_w, first_w, any_g =
          Option.value ~default:(0, false, false, false) (Hashtbl.find_opt stats key)
        in
        if count = 0 then order := key :: !order;
        Hashtbl.replace stats key
          ( count + 1,
            has_w || write,
            (if count = 0 then write && not guarded else first_w),
            any_g || guarded )
      in
      let rec scan_expr guarded e =
        match e with
        | Arr (a, subs) ->
            List.iter (scan_expr guarded) subs;
            note (a, subs) ~write:false ~guarded
        | Bin (_, x, y) ->
            scan_expr guarded x;
            scan_expr guarded y
        | Un (_, x) -> scan_expr guarded x
        | Cond (c, t, e') ->
            scan_expr guarded c;
            scan_expr true t;
            scan_expr true e'
        | Int _ | Var _ -> ()
      in
      let rec scan_stmt guarded s =
        match s with
        | Assign (lv, e) -> (
            scan_expr guarded e;
            match lv with
            | Larr (a, subs) ->
                List.iter (scan_expr guarded) subs;
                note (a, subs) ~write:true ~guarded
            | Lvar _ -> ())
        | If (c, t, e) ->
            scan_expr guarded c;
            List.iter (scan_stmt true) t;
            List.iter (scan_stmt true) e
        | For _ -> ()
        | Rotate _ -> ()
      in
      let apply_inner f =
        st.kernel <-
          {
            st.kernel with
            k_body =
              (match target with
              | inner :: _ ->
                  edit_loop_body ~index:inner.Ast.index f st.kernel.k_body
              | [] -> f st.kernel.k_body (* loop-free kernel: one block *));
          }
      in
      apply_inner (fun body ->
          List.iter (scan_stmt false) body;
          body);
      (* Decide all replacements first (caching the per-array pattern
         check), then rewrite the body in a single pass. *)
      let single_pattern_cache = Hashtbl.create 8 in
      let single_pattern a =
        match Hashtbl.find_opt single_pattern_cache a with
        | Some v -> v
        | None ->
            let v = array_single_pattern st a in
            Hashtbl.replace single_pattern_cache a v;
            v
      in
      let chosen : (string * expr list, string * bool * bool) Hashtbl.t =
        Hashtbl.create 16
      in
      let pre = ref [] and post = ref [] in
      List.iter
        (fun ((a, subs) as key) ->
          let count, has_w, first_is_write, _any_g = Hashtbl.find stats key in
          let worth = count > 1 && st.budget > 0 in
          let safe =
            if has_w then single_pattern a else not (List.mem a written)
          in
          if worth && safe then begin
            let elem =
              match Ast.find_array st.kernel a with
              | Some d -> d.a_elem
              | None -> Dtype.int32
            in
            let r = declare st (String.lowercase_ascii a ^ "_s") elem in
            st.budget <- st.budget - 1;
            Hashtbl.replace chosen key (r, has_w, first_is_write);
            if not first_is_write then
              pre := Assign (Lvar r, Arr (a, subs)) :: !pre;
            if has_w then post := Assign (Larr (a, subs), Var r) :: !post;
            st.report <-
              {
                st.report with
                cse_loads = st.report.cse_loads + 1;
                registers = st.report.registers + 1;
              }
          end)
        (List.rev !order);
      if Hashtbl.length chosen > 0 then
        apply_inner (fun body ->
            let rw_read e =
              match e with
              | Arr (a, subs) -> (
                  match Hashtbl.find_opt chosen (a, subs) with
                  | Some (r, _, _) -> Var r
                  | None -> e)
              | e -> e
            in
            let rec rw_stmt s =
              match s with
              | Assign (Larr (a, subs), e) -> (
                  let subs = List.map (map_expr rw_read) subs in
                  let e = map_expr rw_read e in
                  match Hashtbl.find_opt chosen (a, subs) with
                  | Some (r, true, _) -> Assign (Lvar r, e)
                  | _ -> Assign (Larr (a, subs), e))
              | Assign (Lvar v, e) -> Assign (Lvar v, map_expr rw_read e)
              | If (c, t, e) ->
                  If (map_expr rw_read c, List.map rw_stmt t, List.map rw_stmt e)
              | For l -> For { l with body = List.map rw_stmt l.body }
              | Rotate rs -> Rotate rs
            in
            List.rev !pre @ List.map rw_stmt body @ List.rev !post)

(* ------------------------------------------------------------------ *)

let run ?(config = default_config) (k : kernel) : kernel * report =
  let st =
    {
      kernel = k;
      report = empty_report;
      names = Names.of_kernel k;
      budget = config.max_registers;
      declared = [];
    }
  in
  (* Each phase wants the pattern facts of the current kernel; a phase
     that made no edits leaves [st.kernel] physically unchanged, so the
     previous phase's patterns (and the access walk behind them) are
     still exact and can be reused. *)
  let cached : (kernel * pattern list) option ref = ref None in
  let patterns () =
    match !cached with
    | Some (k, ps) when k == st.kernel -> ps
    | _ ->
        let ps = patterns_of st.kernel in
        cached := Some (st.kernel, ps);
        ps
  in
  (* Hoist/sink first: it removes accumulator traffic and its aliasing
     checks see the original access set. *)
  let ps = patterns () in
  List.iter
    (fun p ->
      let others = List.filter (fun q -> q != p && q.array = p.array) ps in
      try_hoist k st p others)
    ps;
  if config.across_loops then begin
    let ps = patterns () in
    let written = Licm.arrays_written_in st.kernel.k_body in
    (* Smallest banks first, to fit more of them in the budget. *)
    let with_est =
      List.map
        (fun p ->
          let est =
            List.fold_left
              (fun acc (l : loop) ->
                if List.memq l p.varying then acc * Ast.loop_trip l else acc)
              (List.length p.members)
              p.spine
          in
          (est, p))
        ps
    in
    List.iter
      (fun (_, p) -> try_bank ~written st p)
      (List.sort (fun (a, _) (b, _) -> compare a b) with_est)
  end;
  if config.chains then begin
    let ps = patterns () in
    let written = Licm.arrays_written_in st.kernel.k_body in
    let ed = { repl = Hashtbl.create 64; inserts = [] } in
    List.iter (fun p -> try_chains ~config ~written st ed p) ps;
    apply_chain_edits st ed
  end;
  cse_loads st;
  ( { st.kernel with k_scalars = st.kernel.k_scalars @ List.rev st.declared },
    st.report )
