(** Persistent on-disk evaluation stores: the cold-start/warm-start
    discipline. A cache directory holds, per estimation configuration,
    the design-point caches of every kernel ever evaluated under it plus
    the shared fingerprint-keyed tri-schedule memo, so repeated CLI,
    bench and CI runs warm-start instead of re-synthesizing, and
    cross-kernel fingerprint hits are shared across processes.

    {2 Layout}

    {v
    <cache-dir>/
      v1/                          versioned root (schema_version)
        <config-hash>/             one dir per estimation configuration
          CONFIG                   the full configuration string, plain text
          schedmemo.bin            fingerprint -> tri-schedule (kernel-agnostic)
          points-<kernel-hash>.bin config -> point, one file per kernel
    v}

    {2 Invalidation}

    The configuration hash digests everything a cached value can depend
    on: the schema version, the estimator version ({!Hls.Estimate.version}),
    every device parameter, every memory-model parameter, operator
    chaining, the backend name, and the base transform-pipeline options.
    A run under a different configuration lands in a different directory
    and never sees the stale entries; [defacto cache clear] removes them.
    The device's [capacity_slices] is included even though behavioral
    estimates do not read it, because the [lowlevel] backend's P&R
    degradation does.

    Each [.bin] file additionally embeds the full configuration string
    (not just its hash) in a header that is compared verbatim on load;
    a mismatched, truncated or otherwise unreadable file is treated as
    absent (cold), never trusted. Writes go to a temp file in the same
    directory and are renamed into place, so a crashed run cannot leave
    a half-written store behind. *)

(* 2: the tri-schedule memo payload grew a second, region-level table
   (prefix fingerprint -> scheduler snapshot); v1 memo files no longer
   unmarshal into it.
   3: design points are keyed by full transform configurations
   (vector + tile + toggles) instead of bare unroll vectors, and the
   point record grew a [config] field; v2 point files no longer
   unmarshal into it.
   4: the region-level table is gone again; the tri-schedule memo
   payload is the bare fingerprint -> tri table, and v3 memo files no
   longer unmarshal into it. *)
let schema_version = 4

(* ------------------------------------------------------------------ *)
(* Canonical configuration strings *)

let device_string (d : Hls.Device.t) =
  Printf.sprintf "device{name=%s;slices=%d;mems=%d;width=%d;clock=%g;ffs=%d}"
    d.Hls.Device.name d.Hls.Device.capacity_slices d.Hls.Device.num_memories
    d.Hls.Device.memory_width_bits d.Hls.Device.clock_ns
    d.Hls.Device.ffs_per_slice

let mem_string (m : Hls.Memory_model.t) =
  Printf.sprintf "mem{rlat=%d;wlat=%d;rocc=%d;wocc=%d}"
    m.Hls.Memory_model.read_latency m.Hls.Memory_model.write_latency
    m.Hls.Memory_model.read_occupancy m.Hls.Memory_model.write_occupancy

let scalar_string (c : Transform.Scalar_replace.config) =
  Printf.sprintf "scalar{across=%b;chains=%b;span=%d;regs=%d}"
    c.Transform.Scalar_replace.across_loops c.Transform.Scalar_replace.chains
    c.Transform.Scalar_replace.max_chain_span
    c.Transform.Scalar_replace.max_registers

let pipeline_string (o : Transform.Pipeline.options) =
  let vec =
    String.concat ","
      (List.map
         (fun (i, u) -> Printf.sprintf "%s=%d" i u)
         (List.sort compare o.Transform.Pipeline.vector))
  in
  Printf.sprintf "pipeline{vector=[%s];%s;peel=%b;licm=%b;tile=%s}" vec
    (scalar_string o.Transform.Pipeline.scalar)
    o.Transform.Pipeline.peel o.Transform.Pipeline.licm
    (match o.Transform.Pipeline.tile with
    | None -> "none"
    | Some (l, t) -> Printf.sprintf "%s:%d" l t)

(** The full configuration string: everything a cached point or
    tri-schedule can depend on. The verify flag is deliberately absent —
    verified evaluation is bit-identical by contract. *)
let config_string ~(backend : string) (profile : Hls.Estimate.profile)
    (pipeline : Transform.Pipeline.options) : string =
  String.concat "|"
    [
      Printf.sprintf "schema=%d" schema_version;
      "estimator=" ^ Hls.Estimate.version;
      device_string profile.Hls.Estimate.device;
      mem_string profile.Hls.Estimate.mem;
      Printf.sprintf "chaining=%b" profile.Hls.Estimate.chaining;
      "backend=" ^ backend;
      pipeline_string pipeline;
    ]

let digest s = Digest.to_hex (Digest.string s)
let config_key ~backend profile pipeline =
  digest (config_string ~backend profile pipeline)

(** Kernel identity: the digest of its pretty-printed form, so the same
    loop nest loaded from a file or the built-in suite shares a cache
    file and a renamed copy does not collide. *)
let kernel_key (k : Ir.Ast.kernel) =
  digest (Ir.Pretty.kernel_to_string { k with Ir.Ast.k_name = "" })

(* ------------------------------------------------------------------ *)
(* Files *)

let magic = "defacto-store"

type header = { h_magic : string; h_schema : int; h_config : string }

let version_dir cache_dir = Filename.concat cache_dir "v1"

let config_dir ~cache_dir ~config =
  Filename.concat (version_dir cache_dir) (digest config)

let memo_file dir = Filename.concat dir "schedmemo.bin"
let points_file dir ~kernel_key = Filename.concat dir ("points-" ^ kernel_key ^ ".bin")

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Write [payload] (already a closure over output_value calls) to a temp
   file next to [file], then rename into place. *)
let atomic_write file payload =
  mkdir_p (Filename.dirname file);
  let tmp =
    Printf.sprintf "%s.tmp.%d" file (Unix.getpid ())
  in
  let oc = open_out_bin tmp in
  (try payload oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp file

(* Read one store file; [None] when missing, corrupt, truncated or
   written under a different configuration — a cold read, never an
   error. *)
let read_payload : 'a. string -> config:string -> 'a option =
 fun file ~config ->
  if not (Sys.file_exists file) then None
  else
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let h : header = Marshal.from_channel ic in
          if
            h.h_magic <> magic || h.h_schema <> schema_version
            || h.h_config <> config
          then None
          else Some (Marshal.from_channel ic))
    with _ -> None

let write_payload file ~config v =
  atomic_write file (fun oc ->
      Marshal.to_channel oc
        { h_magic = magic; h_schema = schema_version; h_config = config }
        [];
      Marshal.to_channel oc v [])

(* ------------------------------------------------------------------ *)
(* Point caches *)

type points_payload = (Store.config * Store.point) array

(** Merge the kernel's persisted points into [store] (entries already in
    the store win). Returns how many points were loaded. *)
let load_points ~cache_dir ~config ~kernel_key (store : Store.t) : int =
  let dir = config_dir ~cache_dir ~config in
  match
    (read_payload (points_file dir ~kernel_key) ~config : points_payload option)
  with
  | None -> 0
  | Some entries ->
      let n = ref 0 in
      Array.iter
        (fun (k, p) ->
          if not (Hashtbl.mem store.Store.points k) then begin
            Hashtbl.replace store.Store.points k p;
            incr n
          end)
        entries;
      !n

(** Write the kernel's point cache, merged with whatever an earlier run
    already persisted (the store's entries win; under one configuration
    both are bit-identical anyway). *)
let save_points ~cache_dir ~config ~kernel_key (store : Store.t) : unit =
  let dir = config_dir ~cache_dir ~config in
  let merged = Hashtbl.copy store.Store.points in
  (match
     ( read_payload (points_file dir ~kernel_key) ~config
       : points_payload option )
   with
  | None -> ()
  | Some entries ->
      Array.iter
        (fun (k, p) ->
          if not (Hashtbl.mem merged k) then Hashtbl.replace merged k p)
        entries);
  let payload : points_payload =
    Array.of_seq (Seq.map (fun (k, p) -> (k, p)) (Hashtbl.to_seq merged))
  in
  write_payload (points_file dir ~kernel_key) ~config payload;
  (* Keep the configuration readable next to its hash for diagnosis. *)
  let cfg = Filename.concat dir "CONFIG" in
  if not (Sys.file_exists cfg) then
    atomic_write cfg (fun oc -> output_string oc (config ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Tri-schedule memo *)

(** Merge the persisted tri-schedule memo into [memo]; returns how many
    distinct block shapes arrived. *)
let load_memo ~cache_dir ~config (memo : Hls.Schedule.memo) : int =
  let dir = config_dir ~cache_dir ~config in
  match
    (read_payload (memo_file dir) ~config : Hls.Schedule.memo option)
  with
  | None -> 0
  | Some disk ->
      let before = Hls.Schedule.memo_size memo in
      Hls.Schedule.memo_absorb ~into:memo disk;
      Hls.Schedule.memo_size memo - before

let save_memo ~cache_dir ~config (memo : Hls.Schedule.memo) : unit =
  let dir = config_dir ~cache_dir ~config in
  let merged = Hls.Schedule.memo_copy memo in
  (match
     (read_payload (memo_file dir) ~config : Hls.Schedule.memo option)
   with
  | None -> ()
  | Some disk -> Hls.Schedule.memo_absorb ~into:merged disk);
  write_payload (memo_file dir) ~config merged

(* ------------------------------------------------------------------ *)
(* Cache directory diagnosis and removal (defacto cache stats/clear) *)

type config_stats = {
  cs_key : string;  (** the directory name (config hash) *)
  cs_config : string option;  (** CONFIG contents when readable *)
  cs_point_files : int;
  cs_points : int;  (** total cached design points (readable files) *)
  cs_memo_shapes : int;  (** distinct block shapes in the memo, -1 if none *)
  cs_bytes : int;
  cs_invalid : int;  (** unreadable / mismatched / foreign files *)
}

type dir_stats = {
  ds_dir : string;
  ds_exists : bool;
  ds_configs : config_stats list;
  ds_bytes : int;
}

let file_size f = try (Unix.stat f).Unix.st_size with Unix.Unix_error _ -> 0

(* Re-read a file's own header (any config accepted) to count entries;
   used only by [stats], which must describe even foreign configs. *)
let read_with_own_header : 'a. string -> 'a option =
 fun file ->
  try
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let h : header = Marshal.from_channel ic in
        if h.h_magic <> magic || h.h_schema <> schema_version then None
        else Some (Marshal.from_channel ic))
  with _ -> None

let stats ~cache_dir : dir_stats =
  let vdir = version_dir cache_dir in
  if not (Sys.file_exists vdir) then
    { ds_dir = cache_dir; ds_exists = Sys.file_exists cache_dir; ds_configs = []; ds_bytes = 0 }
  else begin
    let configs =
      Sys.readdir vdir |> Array.to_list |> List.sort compare
      |> List.filter (fun d -> Sys.is_directory (Filename.concat vdir d))
      |> List.map (fun key ->
             let dir = Filename.concat vdir key in
             let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
             let cs =
               List.fold_left
                 (fun cs f ->
                   let path = Filename.concat dir f in
                   let cs = { cs with cs_bytes = cs.cs_bytes + file_size path } in
                   if f = "CONFIG" then
                     {
                       cs with
                       cs_config =
                         (try
                            Some
                              (String.trim
                                 (In_channel.with_open_text path
                                    In_channel.input_all))
                          with Sys_error _ -> None);
                     }
                   else if f = "schedmemo.bin" then
                     match
                       (read_with_own_header path : Hls.Schedule.memo option)
                     with
                     | Some m ->
                         { cs with cs_memo_shapes = Hls.Schedule.memo_size m }
                     | None -> { cs with cs_invalid = cs.cs_invalid + 1 }
                   else if
                     String.length f > 7
                     && String.sub f 0 7 = "points-"
                     && Filename.check_suffix f ".bin"
                   then
                     match (read_with_own_header path : points_payload option) with
                     | Some entries ->
                         {
                           cs with
                           cs_point_files = cs.cs_point_files + 1;
                           cs_points = cs.cs_points + Array.length entries;
                         }
                     | None -> { cs with cs_invalid = cs.cs_invalid + 1 }
                   else { cs with cs_invalid = cs.cs_invalid + 1 })
                 {
                   cs_key = key;
                   cs_config = None;
                   cs_point_files = 0;
                   cs_points = 0;
                   cs_memo_shapes = -1;
                   cs_bytes = 0;
                   cs_invalid = 0;
                 }
                 files
             in
             cs)
    in
    {
      ds_dir = cache_dir;
      ds_exists = true;
      ds_configs = configs;
      ds_bytes = List.fold_left (fun a c -> a + c.cs_bytes) 0 configs;
    }
  end

(** Remove the store under [cache_dir]. Conservative by construction:
    only files matching the store's own layout ([CONFIG],
    [schedmemo.bin], [points-*.bin], leftover [*.tmp.*]) are deleted,
    then the emptied directories; anything else in the tree is left in
    place and reported back, so pointing [clear] at the wrong directory
    cannot destroy foreign data. Returns [(removed_files, kept_files)]. *)
let clear ~cache_dir : int * int =
  let vdir = version_dir cache_dir in
  if not (Sys.file_exists vdir) then (0, 0)
  else begin
    let removed = ref 0 and kept = ref 0 in
    let ours f =
      f = "CONFIG" || f = "schedmemo.bin"
      || (String.length f > 7 && String.sub f 0 7 = "points-")
    in
    let is_tmp f =
      (* leftover atomic_write temp files: <name>.tmp.<pid> *)
      let rec has_tmp i =
        i + 4 <= String.length f
        && (String.sub f i 4 = ".tmp" || has_tmp (i + 1))
      in
      has_tmp 0
    in
    Array.iter
      (fun d ->
        let dir = Filename.concat vdir d in
        if Sys.is_directory dir then begin
          Array.iter
            (fun f ->
              let path = Filename.concat dir f in
              if (not (Sys.is_directory path)) && (ours f || is_tmp f) then begin
                (try Sys.remove path; incr removed with Sys_error _ -> incr kept)
              end
              else incr kept)
            (Sys.readdir dir);
          try Unix.rmdir dir with Unix.Unix_error _ -> ()
        end
        else incr kept)
      (Sys.readdir vdir);
    (try Unix.rmdir vdir with Unix.Unix_error _ -> ());
    (!removed, !kept)
  end
