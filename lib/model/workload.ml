module Rng = Usched_prng.Rng
module Dist = Usched_prng.Dist

type spec =
  | Identical of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Pareto of { shape : float; scale : float; cap : float }
  | Bimodal of { p_long : float; short_mean : float; long_mean : float }
  | Lpt_adversarial of { m : int }
  | Sand of { total : float }
  | Bricks of { size : float }
  | Rocks of { lo : float; hi : float }

type size_spec =
  | Unit_sizes
  | Proportional of float
  | Inverse of float
  | Uniform_sizes of { lo : float; hi : float }

let draw_est spec rng =
  match spec with
  | Identical v ->
      if v <= 0.0 then invalid_arg "Workload: identical estimate must be > 0";
      v
  | Exponential { mean } ->
      (* Shift away from zero: estimates must be strictly positive. *)
      Float.max 1e-9 (Dist.exponential rng ~mean)
  | Pareto { shape; scale; cap } ->
      if cap < scale then invalid_arg "Workload: pareto cap below scale";
      Float.min cap (Dist.pareto rng ~shape ~scale)
  | Bimodal { p_long; short_mean; long_mean } ->
      Float.max 1e-9
        (Dist.bimodal rng ~p_long
           ~short:(fun rng -> Dist.exponential rng ~mean:short_mean)
           ~long:(fun rng -> Dist.exponential rng ~mean:long_mean))
  | Uniform _ | Rocks _ | Lpt_adversarial _ | Sand _ | Bricks _ ->
      assert false (* handled column-wise in [generate] *)

let[@inline] draw_size size_spec ~est =
  match size_spec with
  | Unit_sizes -> 1.0
  | Proportional c ->
      if c <= 0.0 then invalid_arg "Workload: proportionality must be > 0";
      c *. est
  | Inverse c ->
      if c <= 0.0 then invalid_arg "Workload: inverse factor must be > 0";
      c /. est
  | Uniform_sizes _ -> assert false (* handled column-wise in [generate] *)

(* The classical LPT lower-bound family: three tasks of each length
   2m-1, 2m-2, ..., m+1 would overshoot; the standard instance is
   2 tasks of each length in {2m-1, ..., m+1} plus one task of length m
   ... there are several variants; we use the textbook one:
   tasks {2m-1, 2m-1, 2m-2, 2m-2, ..., m+1, m+1, m, m, m}. *)
let lpt_adversarial_ests m =
  if m < 2 then invalid_arg "Workload: LPT adversarial family needs m >= 2";
  let pairs =
    List.concat_map
      (fun v -> [ float_of_int v; float_of_int v ])
      (List.init (m - 1) (fun i -> (2 * m) - 1 - i))
  in
  Array.of_list (pairs @ [ float_of_int m; float_of_int m; float_of_int m ])

(* A column of uniform draws on [[lo, hi)]. The range is checked only
   when there is a task to draw. *)
let uniform_column rng ~n ~lo ~hi ~what =
  if n > 0 && (lo <= 0.0 || lo > hi) then
    invalid_arg (Printf.sprintf "Workload: bad %s range" what);
  let ests = Array.create_float n in
  Rng.fill_range rng ests ~lo ~hi;
  ests

(* Both columns are filled by [for] loops into flat float arrays, all
   estimates drawn before all sizes: [Array.init] and [Array.map] would
   box every float through their closures. Uniform columns are filled
   by [Rng.fill_range], which draws the same values without boxing
   one. *)
let generate spec ?(size_spec = Unit_sizes) ~n ~m ~alpha rng =
  if n < 0 then invalid_arg "Workload.generate: negative n";
  let ests =
    match spec with
    | Lpt_adversarial { m = m' } -> lpt_adversarial_ests m'
    | Sand { total } ->
        if total <= 0.0 || not (Float.is_finite total) then
          invalid_arg "Workload: sand total must be finite and > 0";
        if n < 1 then invalid_arg "Workload: sand needs at least one grain";
        Array.make n (total /. float_of_int n)
    | Bricks { size } ->
        if size <= 0.0 || not (Float.is_finite size) then
          invalid_arg "Workload: brick size must be finite and > 0";
        Array.make n size
    | Uniform { lo; hi } -> uniform_column rng ~n ~lo ~hi ~what:"uniform"
    | Rocks { lo; hi } -> uniform_column rng ~n ~lo ~hi ~what:"rocks"
    | _ ->
        let ests = Array.create_float n in
        for j = 0 to n - 1 do
          ests.(j) <- draw_est spec rng
        done;
        ests
  in
  let sizes =
    match size_spec with
    | Uniform_sizes { lo; hi } ->
        if Array.length ests > 0 && (lo < 0.0 || lo > hi) then
          invalid_arg "Workload: bad size range";
        let sizes = Array.create_float (Array.length ests) in
        Rng.fill_range rng sizes ~lo ~hi;
        sizes
    | _ ->
        let sizes = Array.create_float (Array.length ests) in
        for j = 0 to Array.length ests - 1 do
          sizes.(j) <- draw_size size_spec ~est:ests.(j)
        done;
        sizes
  in
  Instance.of_columns ~m ~alpha ~ests ~sizes ()

let grammar =
  "identical:V | uniform:LO:HI | exponential:MEAN | pareto:SHAPE:SCALE:CAP | \
   bimodal:P:SHORT:LONG, every value finite and > 0 except P in [0, 1], LO <= \
   HI, SCALE <= CAP"

let of_spec text =
  let ( let* ) = Result.bind in
  let pos = Spec_text.(read Positive) in
  let ordered lo_name lo hi_name hi =
    if lo <= hi then Ok ()
    else Error (Printf.sprintf "%s %g > %s %g" lo_name lo hi_name hi)
  in
  Spec_text.with_grammar grammar
    (match String.split_on_char ':' text with
    | [ "identical"; v ] ->
        let* v = pos "identical V" v in
        Ok (Identical v)
    | [ "uniform"; lo; hi ] ->
        let* lo = pos "uniform LO" lo in
        let* hi = pos "uniform HI" hi in
        let* () = ordered "uniform LO" lo "HI" hi in
        Ok (Uniform { lo; hi })
    | [ "exponential"; mean ] ->
        let* mean = pos "exponential MEAN" mean in
        Ok (Exponential { mean })
    | [ "pareto"; shape; scale; cap ] ->
        let* shape = pos "pareto SHAPE" shape in
        let* scale = pos "pareto SCALE" scale in
        let* cap = pos "pareto CAP" cap in
        let* () = ordered "pareto SCALE" scale "CAP" cap in
        Ok (Pareto { shape; scale; cap })
    | [ "bimodal"; p_long; short_mean; long_mean ] ->
        let* p_long = Spec_text.(read Prob) "bimodal P" p_long in
        let* short_mean = pos "bimodal SHORT" short_mean in
        let* long_mean = pos "bimodal LONG" long_mean in
        Ok (Bimodal { p_long; short_mean; long_mean })
    | _ -> Error (Printf.sprintf "bad workload %S" text))

let spec_name = function
  | Identical _ -> "identical"
  | Uniform _ -> "uniform"
  | Exponential _ -> "exponential"
  | Pareto _ -> "pareto"
  | Bimodal _ -> "bimodal"
  | Lpt_adversarial _ -> "lpt-adversarial"
  | Sand _ -> "sand"
  | Bricks _ -> "bricks"
  | Rocks _ -> "rocks"

let standard_suite ~m =
  [
    ("identical", Identical 1.0);
    ("uniform", Uniform { lo = 1.0; hi = 100.0 });
    ("exponential", Exponential { mean = 10.0 });
    ("pareto", Pareto { shape = 1.5; scale = 1.0; cap = 1000.0 });
    ( "bimodal",
      Bimodal { p_long = 0.1; short_mean = 1.0; long_mean = 50.0 } );
    ("lpt-adversarial", Lpt_adversarial { m });
  ]

let speed_robust_suite ~m =
  [
    (* Total work scales with m so every class keeps all machines busy. *)
    ("sand", Sand { total = 8.0 *. float_of_int m });
    ("bricks", Bricks { size = 1.0 });
    ("rocks", Rocks { lo = 1.0; hi = 12.0 });
  ]
