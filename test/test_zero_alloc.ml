(* Allocation regression gates for the zero-alloc refactor, measured
   with [Gc.minor_words] directly — the same probes behind the bench
   table, but as hard test assertions.

   The load-bearing trick: every full-length array the engines and
   packers allocate per run (n tasks and beyond) exceeds the minor-heap
   young size, so it lands in the major heap and is invisible to
   [Gc.minor_words]. A minor-word count that does NOT grow with n is
   therefore exactly the claim "the hot loop allocates nothing per
   task": per-run setup (closures, the policy value, the heap record)
   may cost a bounded constant, but the per-event path must be free.

   Each measurement warms up twice (first calls grow heap capacity,
   trigger lazy setup) and takes the minimum over three runs so a GC
   hiccup cannot fail the gate spuriously. *)

module Engine = Usched_desim.Engine
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Rng = Usched_prng.Rng
module Multifit = Usched_core.Multifit
module Assign = Usched_core.Assign
module Fsort = Usched_core.Fsort

let m = 32

let measure f =
  ignore (Sys.opaque_identity (f ()));
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity in
  for _ = 1 to 3 do
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    let after = Gc.minor_words () in
    if after -. before < !best then best := after -. before
  done;
  !best

let setup ~shared n =
  let rng = Rng.create ~seed:(7 * n) () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
  let realization = Realization.uniform_factor instance rng in
  let placement =
    if shared then Array.make n (Bitset.full m)
      (* one physical holder set: the bucketed default policy *)
    else
      Array.init n (fun j ->
          Bitset.of_list m [ j mod m; (j + 1) mod m ])
      (* n distinct sets: overflows the bucket cap, the plain cursors *)
  in
  let order = Instance.lpt_order instance in
  (instance, realization, placement, order, rng)

(* Healthy engine, metrics and tracing off: the per-run minor-word
   count must be independent of n — zero words per task — and small in
   absolute terms, for both default-policy variants. *)
let healthy_is_allocation_free () =
  List.iter
    (fun (label, shared) ->
      let words n =
        let instance, realization, placement, order, _ = setup ~shared n in
        measure (fun () -> Engine.run instance realization ~placement ~order)
      in
      let w2 = words 2000 and w4 = words 4000 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: minor words independent of n" label)
        w2 w4;
      Alcotest.(check bool)
        (Printf.sprintf "%s: per-run constant under 4096 words (got %.0f)"
           label w2)
        true (w2 <= 4096.0))
    [ ("bucketed list-priority", true); ("plain list-priority", false) ]

(* An outcome materializes one [Finished] fate per task (a boxed
   entry), so per-run minor words grow with n — but the slope must stay
   a small constant, not the old per-event record and option churn.
   Measured slope is 9.5 words/task bare, 15.0 with recovery +
   speculation and 17.5 for a speculating stream (whose backup-copy
   search runs on every idle dispatch). Every task here is
   held by all m machines, so each wake reaches every idle machine. The
   gate allows 64. *)
let faulty_slope_is_bounded () =
  let recovery =
    Recovery.make ~detection_latency:0.5
      ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
      ~checkpoint_interval:1.0 ()
  in
  let words variant n =
    let instance, realization, placement, order, rng = setup ~shared:true n in
    let faults =
      Helpers.merge_traces
        (Trace.random_outages rng ~m ~p:0.5 ~horizon:40.0 ~duration:(0.5, 3.0))
        (Trace.random_slowdowns rng ~m ~p:0.5 ~horizon:40.0 ~factor:(0.3, 0.9))
    in
    (* Arrivals at roughly 0.55 load, so machines go idle and back up
       stragglers often (about one backup per two tasks). *)
    let arrivals = Array.init n (fun j -> 0.3 *. float_of_int j) in
    measure (fun () ->
        match variant with
        | `Bare ->
            ignore (Engine.run_faulty instance realization ~faults ~placement ~order)
        | `Recover ->
            ignore
              (Engine.run_faulty ~speculation:1.5 ~recovery instance realization
                 ~faults ~placement ~order)
        | `Stream ->
            ignore
              (Engine.run_stream ~speculation:1.2 instance realization ~arrivals
                 ~placement ~order))
  in
  List.iter
    (fun (label, variant) ->
      let w2 = words variant 2000 and w4 = words variant 4000 in
      let slope = (w4 -. w2) /. 2000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: slope %.1f words/task under 64" label slope)
        true (slope <= 64.0))
    [
      ("bare faults", `Bare);
      ("recovery + speculation", `Recover);
      ("stream + speculation", `Stream);
    ]

(* The trace sink: every engine record is written field by field into
   one reused buffer, floats rendered straight into it, so a record
   costs a small constant number of minor words (the boxed floats
   crossing into the writers), whatever the run's size. The count is
   the words of a traced run minus those of the same run without a
   sink, over the records written. Measured: 2.0 words per record,
   healthy or faulty, the boxed time each writer takes (5 and 7 when
   each float was rendered to a string first). The gate allows 4. *)
module Sink = Usched_obs.Trace

let sink_words_per_record_are_constant () =
  let dir = Filename.temp_file "usched_zero_alloc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "trace.jsonl" in
  let recovery =
    Recovery.make ~detection_latency:0.5
      ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
      ~checkpoint_interval:1.0 ()
  in
  let per_record variant n =
    let instance, realization, placement, order, rng = setup ~shared:true n in
    let faults =
      Helpers.merge_traces
        (Trace.random_outages rng ~m ~p:0.5 ~horizon:40.0 ~duration:(0.5, 3.0))
        (Trace.random_slowdowns rng ~m ~p:0.5 ~horizon:40.0 ~factor:(0.3, 0.9))
    in
    let run ?sink () =
      match variant with
      | `Healthy -> ignore (Engine.run ?sink instance realization ~placement ~order)
      | `Faulty ->
          ignore
            (Engine.run_faulty ~recovery ?sink instance realization ~faults
               ~placement ~order)
    in
    let bare = measure (fun () -> run ()) in
    let traced =
      measure (fun () -> Sink.with_file ~path (fun sink -> run ~sink ()))
    in
    let records =
      In_channel.with_open_bin path In_channel.input_lines |> List.length
    in
    (traced -. bare) /. float_of_int records
  in
  List.iter
    (fun (label, variant) ->
      List.iter
        (fun n ->
          let w = per_record variant n in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d: %.2f words per record, at most 4" label n w)
            true (w <= 4.0))
        [ 2000; 8000 ])
    [ ("healthy", `Healthy); ("faulty + recovery", `Faulty) ];
  Sys.remove path;
  Sys.rmdir dir

(* The packers: multifit's bisection must not allocate per task beyond
   its one index sort (the old version burned 21.7M minor words at
   n=10k, m=100 — the gate pins the rewrite two orders of magnitude
   below that), and the list-assignment heap loop must be constant. *)
let packers_are_allocation_free () =
  let n = 10_000 and mm = 100 in
  let rng = Rng.create ~seed:42 () in
  let p = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let mf = measure (fun () -> Multifit.schedule ~m:mm p) in
  Alcotest.(check bool)
    (Printf.sprintf "multifit n=10k under 300k minor words (got %.0f)" mf)
    true (mf <= 300_000.0);
  let order = Assign.decreasing_order p in
  let la = measure (fun () -> Assign.list_assign ~m:mm ~order ~weights:p) in
  Alcotest.(check bool)
    (Printf.sprintf "list_assign n=10k under 4096 minor words (got %.0f)" la)
    true (la <= 4096.0);
  let scratch = Array.copy p in
  let fs =
    measure (fun () ->
        Array.blit p 0 scratch 0 n;
        Fsort.descending scratch)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Fsort.descending n=10k under 64 minor words (got %.0f)"
       fs)
    true (fs <= 64.0)

(* The whole-placement scans: word-level set iteration allocates
   nothing; [memory_loads] allocates its m-float result and nothing per
   task; the transfer bill of a one-zone topology is a constant. *)
module Placement = Usched_core.Placement
module Topology = Usched_model.Topology

let visited = ref 0
let visit i = visited := !visited + i

let scans_are_allocation_free () =
  let full = Bitset.full 1000 in
  let it = measure (fun () -> Bitset.iter visit full) in
  Alcotest.(check (float 0.0)) "Bitset.iter over a full 1000-capacity set" 0.0 it;
  let placement n =
    Placement.of_sets ~m
      (Array.init n (fun j -> Bitset.of_list m [ j mod m; (j + 7) mod m; (j + 13) mod m ]))
  in
  let sizes n = Array.init n (fun j -> 1.0 +. float_of_int (j mod 5)) in
  let loads_words n =
    let p = placement n and sizes = sizes n in
    measure (fun () -> Placement.memory_loads p ~sizes)
  in
  let l5 = loads_words 5_000 and l10 = loads_words 10_000 in
  Alcotest.(check (float 0.0)) "memory_loads: minor words independent of n" l5 l10;
  Alcotest.(check bool)
    (Printf.sprintf "memory_loads n=10k: the m-float result only (got %.0f)" l10)
    true
    (l10 <= float_of_int (m + 1 + 8));
  let cost_words n =
    let p = placement n and sizes = sizes n in
    let topology = Topology.uniform ~m in
    measure (fun () -> Placement.replication_cost p ~topology ~sizes)
  in
  let c5 = cost_words 5_000 and c10 = cost_words 10_000 in
  Alcotest.(check (float 0.0)) "uniform replication_cost: independent of n" c5 c10;
  Alcotest.(check bool)
    (Printf.sprintf "uniform replication_cost under 16 words (got %.0f)" c10)
    true (c10 <= 16.0)

(* The one-pass instance parser converts plain-digit fields in place:
   [Float_text.parse_into] stores a [%.17g] estimate straight into its
   column, and an integral size the same way, so a row allocates
   nothing; the two columns themselves are major-heap blocks. (The
   two-pass parser it replaced allocated about 38 words per row, the
   [String.sub]-and-[float_of_string] one 6.) The gate is 0. *)
module Io = Usched_model.Io

let parser_words_per_row () =
  let text n =
    let rng = Rng.create ~seed:n () in
    let b = Buffer.create (32 * n) in
    Buffer.add_string b "# usched-instance m=4 alpha=2\nid,est,size\n";
    for j = 0 to n - 1 do
      Buffer.add_string b
        (Printf.sprintf "%d,%.17g,%d\n" j
           (Rng.float_range rng ~lo:1.0 ~hi:100.0)
           (1 + (j mod 3)))
    done;
    Buffer.contents b
  in
  let words n =
    let t = text n in
    measure (fun () -> Io.instance_of_string t)
  in
  let w2 = words 2000 and w4 = words 4000 in
  let per_row = (w4 -. w2) /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "instance_of_string: %.2f minor words per row, at most 0" per_row)
    true (per_row <= 0.0)

(* The writer prints ids through a digit loop and floats through
   [Float_text.add_g17], which reads each one out of its column: no
   string and no boxed float per field. The rows here take every fast
   path: 17-digit estimates, integral and fractional sizes, a zero.
   The buffer and the column copies are major-heap blocks, so the count
   is a constant of the call. *)
let writer_words_per_row () =
  let words n =
    let rng = Rng.create ~seed:n () in
    let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.001 ~hi:1e6) in
    let sizes =
      Array.init n (fun j -> if j mod 3 = 0 then float_of_int j else 0.25 *. float_of_int j)
    in
    let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes ests in
    measure (fun () -> Io.instance_to_string instance)
  in
  let w1 = words 10_000 and w2 = words 20_000 in
  Alcotest.(check (float 0.0)) "instance_to_string: minor words independent of n" w1 w2;
  Alcotest.(check bool)
    (Printf.sprintf "instance_to_string n=10k: a per-call constant (got %.0f)" w1)
    true (w1 <= 512.0)

(* Placement's whole-placement scans read one summary (distinct sets,
   machine classes); they must equal the per-replica walk bit for bit,
   on sets physically shared or merely equal. *)
let reference_loads ~m sets sizes =
  let loads = Array.make m 0.0 in
  Array.iteri
    (fun j set -> Bitset.iter (fun i -> loads.(i) <- loads.(i) +. sizes.(j)) set)
    sets;
  loads

let prop_class_scans_match_replica_walk =
  QCheck.Test.make ~name:"class-based loads and counts = per-replica walk"
    ~count:300
    QCheck.(triple (int_range 1 12) (int_range 0 60) int)
    (fun (mm, n, seed) ->
      let rng = Random.State.make [| seed |] in
      let random_set () =
        let set = Bitset.create mm in
        Bitset.add set (Random.State.int rng mm);
        for i = 0 to mm - 1 do
          if Random.State.int rng 3 = 0 then Bitset.add set i
        done;
        set
      in
      let sets =
        match Random.State.int rng 4 with
        | 0 -> Array.init n (fun _ -> Bitset.singleton mm (Random.State.int rng mm))
        | 1 -> Array.init n (fun _ -> Bitset.full mm)
        | 2 ->
            let k = 1 + Random.State.int rng mm in
            let groups =
              Array.init k (fun g ->
                  Array.of_list (List.filter (fun i -> i mod k = g) (List.init mm Fun.id)))
            in
            let groups = Array.map (fun g -> if g = [||] then [| 0 |] else g) groups in
            Placement.sets
              (Placement.of_group_assignment ~m:mm ~groups
                 (Array.init n (fun _ -> Random.State.int rng k)))
        | _ ->
            let pool = Array.init (1 + Random.State.int rng 5) (fun _ -> random_set ()) in
            Array.init n (fun _ ->
                let set = pool.(Random.State.int rng (Array.length pool)) in
                if Random.State.bool rng then set else Bitset.copy set)
      in
      let sizes =
        Array.init n (fun _ ->
            Float.ldexp (Random.State.float rng 1.0) (Random.State.int rng 40 - 20))
      in
      let p = Placement.of_sets ~m:mm sets in
      let bits a = Array.map Int64.bits_of_float a in
      bits (Placement.memory_loads p ~sizes) = bits (reference_loads ~m:mm sets sizes)
      && Placement.max_replication p
         = Array.fold_left (fun acc s -> max acc (Bitset.cardinal s)) 0 sets
      && Placement.total_replicas p
         = Array.fold_left (fun acc s -> acc + Bitset.cardinal s) 0 sets)

(* The uniform-machines bound keeps only the m largest task times, so
   its minor words are a function of m alone: two m-float buffers plus
   a constant, nothing per task. *)
module Uniform = Usched_core.Uniform

let uniform_bound_is_independent_of_n () =
  let speeds = Array.init m (fun i -> 0.5 +. float_of_int (i mod 4)) in
  let words n =
    let p = Array.init n (fun j -> float_of_int ((j * 7919) mod 1000) +. 0.5) in
    measure (fun () -> Uniform.lower_bound ~speeds p)
  in
  let w1 = words 1_000 and w100 = words 100_000 in
  Alcotest.(check (float 0.0)) "Uniform.lower_bound: minor words independent of n" w1 w100;
  Alcotest.(check bool)
    (Printf.sprintf "Uniform.lower_bound n=100k: two m-float buffers (got %.0f)" w100)
    true
    (w100 <= float_of_int ((2 * (m + 1)) + 16))

(* Survival bootstraps draw a million bounded ints per estimate: the
   generator state is updated in place, with no boxed int64. *)
let rng_int_is_allocation_free () =
  let rng = Rng.create ~seed:3 () in
  let words =
    measure (fun () ->
        let s = ref 0 in
        for _ = 1 to 10_000 do
          s := !s + Rng.int rng 1000
        done;
        !s)
  in
  Alcotest.(check (float 0.0)) "Rng.int: minor words for 10k draws" 0.0 words

let () =
  Alcotest.run "zero_alloc"
    [
      ( "engine",
        [
          Alcotest.test_case "healthy loop allocates nothing per task" `Quick
            healthy_is_allocation_free;
          Alcotest.test_case "faulty slope bounded" `Quick
            faulty_slope_is_bounded;
          Alcotest.test_case "sink words per record constant" `Quick
            sink_words_per_record_are_constant;
        ] );
      ( "packers",
        [
          Alcotest.test_case "multifit and list-assign" `Quick
            packers_are_allocation_free;
        ] );
      ( "scans",
        [
          Alcotest.test_case "bitset, memory loads, uniform transfer cost" `Quick
            scans_are_allocation_free;
        ] );
      ( "parser",
        [
          Alcotest.test_case "instance_of_string words per row" `Quick parser_words_per_row;
          Alcotest.test_case "instance_to_string words per row" `Quick writer_words_per_row;
        ] );
      ( "placement summary",
        [ QCheck_alcotest.to_alcotest prop_class_scans_match_replica_walk ] );
      ( "bounds",
        [
          Alcotest.test_case "uniform lower bound allocates O(m)" `Quick
            uniform_bound_is_independent_of_n;
        ] );
      ( "prng",
        [ Alcotest.test_case "Rng.int allocates nothing" `Quick rng_int_is_allocation_free ] );
    ]
