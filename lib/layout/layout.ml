(** Custom data layout (Section 4 of the paper): array renaming followed
    by memory mapping.

    {b Array renaming} distributes each array cyclically over a number of
    virtual memories — cyclic in at least one dimension, possibly more —
    and gives every array access expression a virtual memory id. For a
    bank shape [(b_1, ..., b_n)] (one factor per dimension, product at
    most the number of physical memories), the element at subscripts
    [(s_1, ..., s_n)] lives in bank [(s_1 mod b_1, ..., s_n mod b_n)].

    Whether an access's bank is usable at schedule time follows the
    paper's two regimes:

    - {e constant residue}: the per-dimension strides of the access are
      multiples of [b_d], so the access always touches the same bank;
    - {e steady state} (Section 5.2): all of the array's accesses in one
      loop context are uniformly generated, so their banks rotate in
      lockstep from iteration to iteration and conflicts depend only on
      the constant offsets. Peeled copies live in different contexts and
      are never co-scheduled with the main body, so each context is
      checked separately.

    The bank shape is chosen to maximise the number of distinct banks
    among co-scheduled accesses. Arrays that fit neither regime keep a
    single memory, as the paper prescribes for non-uniformly generated
    accesses.

    {b Memory mapping} binds (array, virtual id) pairs to physical
    memories in first-read order, round-robin, so that the reads of the
    unrolled body spread across the memories; writes are bound next, the
    paper's read-order-first policy. *)

open Ir
module Access = Analysis.Access

type t = {
  num_memories : int;
  banks : (string * int) list;  (** array -> total number of virtual banks *)
  shapes : (string * int list) list;  (** array -> per-dimension factors *)
  vids : (int * int) list;  (** access id -> virtual id within its array *)
  phys : ((string * int) * int) list;  (** (array, vid) -> physical memory *)
  vid_tbl : (int, int) Hashtbl.t;
      (** [vids] as a table — {!memory_of} runs once per load/store node
          of every DFG build, so the lookup must not scan the access list *)
  mem_tbl : (string * int, int) Hashtbl.t;  (** [phys] as a table *)
}

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Per-dimension stride modulus of an access: gcd of [coefficient * step]
    over its enclosing loops. A bank factor dividing this keeps the
    access's bank constant in that dimension. [None] when non-affine. *)
let dim_modulus (a : Access.t) (d : int) : int option =
  match List.nth a.affine d with
  | None -> None
  | Some f ->
      Some
        (List.fold_left
           (fun acc (l : Ast.loop) ->
             let c = Affine.coeff f l.index in
             if c = 0 then acc else gcd acc (c * l.step))
           0 a.loops)

(** Per-dimension constant offset (subscript at the loop lower bounds). *)
let dim_offset (a : Access.t) (d : int) : int =
  match List.nth a.affine d with
  | None -> 0
  | Some f ->
      let env v =
        match List.find_opt (fun (l : Ast.loop) -> l.index = v) a.loops with
        | Some l -> l.lo
        | None -> 0
      in
      Affine.eval ~env f

(** Accesses grouped by loop context: only same-context accesses can be
    co-scheduled in one block. *)
let context_groups (of_array : Access.t list) : Access.t list list =
  let tbl : (string list, Access.t list) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (a : Access.t) ->
      let key = Access.indices a in
      (match Hashtbl.find_opt tbl key with
      | None -> order := key :: !order
      | Some _ -> ());
      Hashtbl.replace tbl key
        (a :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
    of_array;
  List.rev_map (fun k -> List.rev (Hashtbl.find tbl k)) !order

(** Uniform generation within a context, per dimension. *)
let group_uniform (group : Access.t list) ~dims : bool =
  match group with
  | [] | [ _ ] -> true
  | first :: rest ->
      List.for_all
        (fun (a : Access.t) ->
          List.length a.affine = dims
          && List.for_all
               (fun d ->
                 match (List.nth first.affine d, List.nth a.affine d) with
                 | Some f, Some g -> Affine.uniformly_generated f g
                 | _ -> false)
               (List.init dims Fun.id))
        rest

(** Candidate per-dimension bank shapes (powers of two per dimension)
    with product at most [n]. *)
let shapes_for ~dims ~n : int list list =
  let opts = List.filter (fun b -> b <= n) [ 1; 2; 4; 8 ] in
  let rec go d =
    if d = 0 then [ [] ]
    else List.concat_map (fun tl -> List.map (fun b -> b :: tl) opts) (go (d - 1))
  in
  List.filter (fun s -> List.fold_left ( * ) 1 s <= n) (go dims)
  |> List.sort_uniq compare

(** A shape is legal for an access when each dimension is either constant
    residue ([b_d] divides the stride modulus) or covered by the
    steady-state regime (checked per context by the caller). *)
let shape_constant_ok (a : Access.t) (shape : int list) : bool =
  List.for_all2
    (fun b d ->
      b = 1
      ||
      match dim_modulus a d with
      | None -> false
      | Some 0 -> true (* constant subscript in this dimension *)
      | Some g -> g mod b = 0)
    shape
    (List.init (List.length shape) Fun.id)

let vid_of ~shape (a : Access.t) : int =
  let rec go shape d acc =
    match shape with
    | [] -> acc
    | b :: rest ->
        let off = dim_offset a d in
        let r = ((off mod b) + b) mod b in
        go rest (d + 1) ((acc * b) + r)
  in
  go shape 0 0

(** Choose the bank shape of one array: among legal shapes, maximise the
    number of distinct virtual ids among co-scheduled accesses (summed
    over contexts), preferring fewer banks on ties. *)
let choose_shape ~num_memories (decl : Ast.array_decl)
    (of_array : Access.t list) : int list =
  let dims = List.length decl.a_dims in
  let default = List.init dims (fun _ -> 1) in
  if List.exists (fun a -> not (Access.is_affine a)) of_array then default
  else begin
    let groups = context_groups of_array in
    let uniform = List.for_all (fun g -> group_uniform g ~dims) groups in
    let legal shape =
      uniform || List.for_all (fun a -> shape_constant_ok a shape) of_array
    in
    let score shape =
      List.fold_left
        (fun acc group ->
          acc
          + List.length
              (List.sort_uniq compare (List.map (vid_of ~shape) group)))
        0 groups
    in
    let candidates = List.filter legal (shapes_for ~dims ~n:num_memories) in
    match candidates with
    | [] -> default
    | c :: rest ->
        List.fold_left
          (fun best s ->
            let sb = score best and ss = score s in
            let pb = List.fold_left ( * ) 1 best
            and ps = List.fold_left ( * ) 1 s in
            if ss > sb || (ss = sb && ps < pb) then s else best)
          c rest
  end

(** Compute the full layout for a kernel given its collected accesses
    (use the same [Access.collect] result the scheduler consumes, so the
    access ids agree). *)
let assign ~num_memories (k : Ast.kernel) (accesses : Access.t list) : t =
  if num_memories < 1 then
    invalid_arg
      (Printf.sprintf "Layout.assign: num_memories = %d, need at least 1"
         num_memories);
  let arrays =
    List.sort_uniq String.compare
      (List.map (fun (a : Access.t) -> a.Access.array) accesses)
  in
  let shapes =
    List.map
      (fun ar ->
        match Ast.find_array k ar with
        | None -> (ar, [ 1 ])
        | Some decl ->
            let of_array =
              List.filter (fun (a : Access.t) -> a.array = ar) accesses
            in
            (ar, choose_shape ~num_memories decl of_array))
      arrays
  in
  let banks =
    List.map (fun (ar, s) -> (ar, List.fold_left ( * ) 1 s)) shapes
  in
  let vid_tbl = Hashtbl.create (List.length accesses) in
  let vids =
    List.map
      (fun (a : Access.t) ->
        let shape = List.assoc a.array shapes in
        let vid =
          if List.length a.affine = List.length shape && Access.is_affine a
          then vid_of ~shape a
          else 0
        in
        Hashtbl.replace vid_tbl a.id vid;
        (a.id, vid))
      accesses
  in
  (* Physical binding: distinct (array, vid) pairs in first-read order,
     then first-write order, round-robin over the memories. *)
  let phys = ref [] in
  let mem_tbl = Hashtbl.create 16 in
  let next = ref 0 in
  let bind (a : Access.t) =
    let vid = Hashtbl.find vid_tbl a.id in
    let key = (a.array, vid) in
    if not (Hashtbl.mem mem_tbl key) then begin
      let m = !next mod num_memories in
      phys := (key, m) :: !phys;
      Hashtbl.replace mem_tbl key m;
      incr next
    end
  in
  List.iter (fun a -> if Access.is_read a then bind a) accesses;
  List.iter (fun a -> if Access.is_write a then bind a) accesses;
  { num_memories; banks; shapes; vids; phys = List.rev !phys; vid_tbl; mem_tbl }

(** Physical memory of an access (by its id from the shared collection). *)
let memory_of (t : t) (a : Access.t) : int =
  match Hashtbl.find_opt t.vid_tbl a.id with
  | None -> 0
  | Some vid -> (
      match Hashtbl.find_opt t.mem_tbl (a.array, vid) with
      | Some m -> m
      | None -> 0)

let pp fmt (t : t) =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (ar, shape) ->
      Format.fprintf fmt "array %s: banks (%s)@," ar
        (String.concat " x " (List.map string_of_int shape)))
    t.shapes;
  List.iter
    (fun ((ar, vid), m) -> Format.fprintf fmt "%s#%d -> mem%d@," ar vid m)
    t.phys;
  Format.fprintf fmt "@]"
