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

(* The faulty engine's epilogue materializes one [Finished] fate per
   task (a boxed entry), so per-run minor words grow with n — but the
   slope must stay a small constant, not the old per-event record and
   option churn. Measured slope is 13.5 words/task bare, 21.0 with
   recovery + speculation and 45.8 for a speculating stream (whose
   backup-copy search runs on every idle dispatch). Every task here is
   held by all m machines, so each wake reaches every idle machine. The
   gate allows 64. *)
let faulty_slope_is_bounded () =
  let recovery =
    Recovery.make ~detection_latency:0.5
      ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
      ~checkpoint_interval:1.0 ~max_retries:2 ()
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
   one reused buffer, so a record costs a small constant number of minor
   words (the boxed floats crossing into the writers and their rendered
   strings), whatever the run's size. The count is the words of a traced
   run minus those of the same run without a sink, over the records
   written. Measured: about 5 words per record on the faulty loop and 7
   on the healthy one. *)
module Sink = Usched_obs.Trace

let sink_words_per_record_are_constant () =
  let dir = Filename.temp_file "usched_zero_alloc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "trace.jsonl" in
  let recovery =
    Recovery.make ~detection_latency:0.5
      ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
      ~checkpoint_interval:1.0 ~max_retries:2 ()
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
            (Printf.sprintf "%s n=%d: %.1f words per record, at most 12" label n w)
            true (w <= 12.0))
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
      ( "bounds",
        [
          Alcotest.test_case "uniform lower bound allocates O(m)" `Quick
            uniform_bound_is_independent_of_n;
        ] );
      ( "prng",
        [ Alcotest.test_case "Rng.int allocates nothing" `Quick rng_int_is_allocation_free ] );
    ]
