module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Speed_band = Usched_model.Speed_band
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Trace = Usched_faults.Trace
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary
module Metrics = Usched_obs.Metrics

let m = 8
let n = 32
let mc_draws_per_rep = 12
let band = Speed_band.uniform ~m ~lo:0.5 ~hi:2.0

(* Estimates are exact (alpha = 1): the only uncertainty in this
   experiment is which in-band speeds the adversary (or the Monte-Carlo
   sampler) reveals, so ratio differences are placement hedges, not
   estimation luck. *)
let alpha = 1.0

let strategy_specs =
  Strategy.
    [
      ("no replication (LPT)", No_replication Lpt);
      ("budgeted k=2", Budgeted 2);
      ("speed-robust k=2", Speed_robust { k = 2 });
      ("full replication", Full_replication Lpt);
    ]

type assessment = {
  adv_speeds : float array;
  ratio_adv : float;
  mc_ratios : float array;
  reveal_at : float;
  makespan_reveal : float;
}

let adversarial_ratio ~dispatch ~domains ~draws instance realization placement
    band =
  let actuals = Realization.actuals realization in
  let sets = Core.Placement.sets placement in
  let order = Instance.lpt_order instance in
  let lower_bound = Core.Uniform.lower_bound_of actuals in
  let ratio_at speeds =
    Schedule.makespan
      (Engine.run ~speeds ~dispatch instance realization ~placement:sets ~order)
    /. lower_bound ~speeds
  in
  let makespan_bound =
    Core.Speed_adversary.makespan_bound instance ~actuals placement
  in
  let bound speeds = makespan_bound speeds /. lower_bound ~speeds in
  Array.iter
    (fun d ->
      if not (Speed_band.contains band d) then
        invalid_arg "Speed_sweep.adversarial_ratio: draw outside its band")
    draws;
  let mc_ratios = Array.map ratio_at draws in
  (* The draws are folded in after the search, in draw order and keeping
     the first maximum, as candidates of [worst_case] would be, so the
     adversarial ratio dominates every sampled one without replaying
     them twice. *)
  let worst =
    ref
      (Core.Speed_adversary.worst_case ~run:ratio_at ~bound ~domains instance
         placement band)
  in
  Array.iteri
    (fun k ratio -> if ratio > snd !worst then worst := (draws.(k), ratio))
    mc_ratios;
  let speeds, ratio = !worst in
  (speeds, ratio, mc_ratios)

let assess ?(dispatch = Dispatch.default) ?speculation ?recovery
    ?(domains = 1) ~draws instance realization placement band =
  let m = Instance.m instance in
  let actuals = Realization.actuals realization in
  let sets = Core.Placement.sets placement in
  let order = Instance.lpt_order instance in
  let adv_speeds, ratio_adv, mc_ratios =
    adversarial_ratio ~dispatch ~domains ~draws instance realization placement
      band
  in
  (* Mid-run revelation: start every machine at its optimistic speed,
     then at [reveal_at] the fault layer slows each to the adversary's
     pick (factor = target / current). *)
  let his = Speed_band.his band in
  let reveal_at = 0.5 *. Core.Uniform.lower_bound ~speeds:his actuals in
  let factors = Array.mapi (fun i s -> s /. his.(i)) adv_speeds in
  let reveal =
    Engine.run_faulty ?speculation ~speeds:his ~dispatch ?recovery instance
      realization
      ~faults:(Trace.revelation ~m ~at:reveal_at factors)
      ~placement:sets ~order
  in
  {
    adv_speeds;
    ratio_adv;
    mc_ratios;
    reveal_at;
    makespan_reveal = reveal.Engine.makespan;
  }

type row = {
  cname : string;
  name : string;
  spec : Strategy.t;
  algo : Core.Two_phase.t;
  adv : Summary.t;
  mc : Summary.t;
  reveal : Summary.t;
}

let run config =
  Runner.print_section
    "Speed-robust placement -- sand/bricks/rocks under banded speeds";
  (* Every repetition runs the corner adversary on every placement, so
     the repetitions are capped rather than the search. *)
  let reps = Stdlib.max 4 (Stdlib.min 12 config.Runner.reps) in
  Printf.printf
    "m=%d machines, every speed in [%g, %g] (committed placement, speeds\n\
     revealed after). n=%d tasks, alpha=%g (exact estimates). Per class and\n\
     repetition every strategy faces the same workload, the same %d paired\n\
     Monte-Carlo revelations, and the same exhaustive corner adversary; the\n\
     sampled draws join the adversary's candidate set, so 'adv' dominates\n\
     'MC' by construction. Ratios are makespan over the uniform-machines\n\
     lower bound at the revealed speeds. 'reveal@t' replays the adversarial\n\
     revelation mid-run through the fault layer: machines start fast and\n\
     are slowed by Slowdown events while work is in flight.\n\n"
    m
    (Speed_band.lo band 0)
    (Speed_band.hi band 0)
    n alpha mc_draws_per_rep;
  let hedge_wins = ref 0 in
  let rows =
    List.concat
      (List.mapi
         (fun cidx (cname, workload) ->
           let rows =
             List.map
               (fun (name, spec) ->
                 {
                   cname;
                   name;
                   spec;
                   algo = Runner.strategy config ~m spec;
                   adv = Summary.create ();
                   mc = Summary.create ();
                   reveal = Summary.create ();
                 })
               strategy_specs
           in
           Runner.paired_reps config ~salt:(7127 * cidx) ~reps (fun rng ->
               let instance =
                 Workload.generate workload ~n ~m
                   ~alpha:(Uncertainty.alpha alpha) rng
               in
               let instance = Instance.with_speed_band instance (Some band) in
               let realization = Realization.exact instance in
               let actuals = Realization.actuals realization in
               let draws =
                 Array.init mc_draws_per_rep (fun _ ->
                     Speed_band.sample band (Rng.split rng))
               in
               List.iter
                 (fun row ->
                   let placement = row.algo.Core.Two_phase.phase1 instance in
                   let a = assess ~draws instance realization placement band in
                   Summary.add row.adv a.ratio_adv;
                   Array.iter (Summary.add row.mc) a.mc_ratios;
                   Summary.add row.reveal
                     (a.makespan_reveal
                     /. Core.Uniform.lower_bound ~speeds:a.adv_speeds actuals))
                 rows);
           let mean_adv row = Summary.mean row.adv in
           let no_rep = mean_adv (List.hd rows) in
           let best_replicated =
             List.fold_left
               (fun acc r -> Float.min acc (mean_adv r))
               infinity (List.tl rows)
           in
           if best_replicated < no_rep then incr hedge_wins;
           Metrics.set
             (Metrics.gauge config.Runner.metrics
                (Printf.sprintf "speed_robust.%s.no_replication" cname))
             no_rep;
           Metrics.set
             (Metrics.gauge config.Runner.metrics
                (Printf.sprintf "speed_robust.%s.best_replicated" cname))
             best_replicated;
           rows)
         (Workload.speed_robust_suite ~m))
  in
  Metrics.set
    (Metrics.gauge config.Runner.metrics "speed_robust.hedge_wins")
    (float_of_int !hedge_wins);
  Runner.report config ~csv:"speed_robust"
    Runner.
      [
        text ~csv:"class" "class" (fun r -> r.cname);
        column ~align:Left
          ~csv:[ ("strategy", fun r -> Strategy.to_string r.spec) ]
          "strategy"
          (fun r -> r.name);
        float ~csv:"adv_ratio_mean" "adv ratio" (fun r -> Summary.mean r.adv);
        float ~csv:"adv_ratio_worst" "adv worst" (fun r -> Summary.max r.adv);
        float ~csv:"mc_ratio_mean" "MC mean" (fun r -> Summary.mean r.mc);
        float ~csv:"reveal_ratio_mean" "reveal@t" (fun r ->
            Summary.mean r.reveal);
      ]
    rows;
  Printf.printf
    "\nPinned placement commits each task to one machine before speeds are\n\
     known, so the adversary slows exactly the loaded machines and the\n\
     ratio blows up — worst on sand, where a speed-aware schedule would be\n\
     perfectly divisible. Any replication lets phase 2 route work toward\n\
     the machines revealed fast; the speed-robust family gets most of full\n\
     replication's hedge at a quarter of its memory by keeping one replica\n\
     per speed class (%d/3 classes where some replication beats none).\n"
    !hedge_wins
