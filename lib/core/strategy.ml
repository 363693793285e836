module Spec_text = Usched_model.Spec_text
module Instance = Usched_model.Instance

type order = Lpt | Ls
type uniform_variant = U_no_choice | U_no_restriction | U_group of int

type t =
  | No_replication of order
  | Full_replication of order
  | Group of { order : order; k : int }
  | Budgeted of int
  | Proportional of float
  | Selective of int
  | Sabo of float
  | Abo of float
  | Memory_budget of float
  | Reliability of { target : float; budget : float option }
  | Uniform of { variant : uniform_variant; speeds : float array }
  | Speed_robust of { k : int }
  | Zone_group of int
  | Local_budget of float

(* Domain checks independent of m. Group counts against m and speeds
   length are left to [check], which knows m. *)

let positive_finite label x =
  if Float.is_nan x then Error (Printf.sprintf "%s must not be NaN" label)
  else if not (Float.is_finite x) then
    Error (Printf.sprintf "%s must be finite, got %g" label x)
  else if x <= 0.0 then
    Error (Printf.sprintf "%s must be > 0, got %g" label x)
  else Ok ()

let validate = function
  | No_replication _ | Full_replication _ -> Ok ()
  | Group { k; _ } ->
      if k >= 1 then Ok ()
      else Error (Printf.sprintf "group count must be >= 1, got %d" k)
  | Budgeted k ->
      if k >= 1 then Ok ()
      else Error (Printf.sprintf "replication budget must be >= 1, got %d" k)
  | Proportional f ->
      if Float.is_nan f then Error "fraction must not be NaN"
      else if not (Float.is_finite f) then
        Error (Printf.sprintf "fraction must be finite, got %g" f)
      else if f < 0.0 || f > 1.0 then
        Error (Printf.sprintf "fraction must be in [0, 1], got %g" f)
      else Ok ()
  | Selective count ->
      if count >= 0 then Ok ()
      else Error (Printf.sprintf "selective count must be >= 0, got %d" count)
  | Speed_robust { k } ->
      if k >= 1 then Ok ()
      else Error (Printf.sprintf "speed class count must be >= 1, got %d" k)
  | Zone_group k ->
      if k >= 1 then Ok ()
      else Error (Printf.sprintf "zone count must be >= 1, got %d" k)
  | Local_budget b ->
      if Float.is_nan b then Error "transfer budget must not be NaN"
      else if not (Float.is_finite b) then
        Error (Printf.sprintf "transfer budget must be finite, got %g" b)
      else if b < 0.0 then
        Error (Printf.sprintf "transfer budget must be >= 0, got %g" b)
      else Ok ()
  | Sabo delta -> positive_finite "delta" delta
  | Abo delta -> positive_finite "delta" delta
  | Memory_budget budget -> positive_finite "memory budget" budget
  | Reliability { target; budget } -> (
      if Float.is_nan target then Error "reliability target must not be NaN"
      else if not (target > 0.0 && target < 1.0) then
        Error
          (Printf.sprintf
             "reliability target must be a probability in (0, 1), got %g"
             target)
      else
        match budget with
        | None -> Ok ()
        | Some b -> positive_finite "memory budget" b)
  | Uniform { variant; speeds } -> (
      let speeds_ok () =
        if Array.length speeds = 0 then Error "speeds must be non-empty"
        else
          let bad = ref None in
          Array.iter
            (fun s ->
              if !bad = None && (Float.is_nan s || not (Float.is_finite s) || s <= 0.0)
              then bad := Some s)
            speeds;
          match !bad with
          | Some s ->
              Error
                (Printf.sprintf "every speed must be finite and > 0, got %g" s)
          | None -> Ok ()
      in
      match variant with
      | U_no_choice | U_no_restriction -> speeds_ok ()
      | U_group k ->
          if k < 1 then
            Error (Printf.sprintf "group count must be >= 1, got %d" k)
          else speeds_ok ())

(* Floats print through [Spec_text.float_to_string], so they parse back
   to the identical value. *)
let to_string spec =
  let num = Spec_text.float_to_string in
  let speeds_str speeds = String.concat "," (List.map num (Array.to_list speeds)) in
  match spec with
  | No_replication Lpt -> "lpt-no-choice"
  | No_replication Ls -> "ls-no-choice"
  | Full_replication Lpt -> "lpt-no-restriction"
  | Full_replication Ls -> "ls-no-restriction"
  | Group { order = Ls; k } -> Printf.sprintf "ls-group:%d" k
  | Group { order = Lpt; k } -> Printf.sprintf "lpt-group:%d" k
  | Budgeted k -> Printf.sprintf "budgeted:%d" k
  | Proportional f -> Printf.sprintf "proportional:%s" (num f)
  | Selective count -> Printf.sprintf "selective:%d" count
  | Sabo delta -> Printf.sprintf "sabo:%s" (num delta)
  | Abo delta -> Printf.sprintf "abo:%s" (num delta)
  | Memory_budget budget -> Printf.sprintf "memory:%s" (num budget)
  | Reliability { target; budget = None } ->
      Printf.sprintf "reliability:%s" (num target)
  | Reliability { target; budget = Some b } ->
      Printf.sprintf "reliability:%s:budget:%s" (num target) (num b)
  | Uniform { variant = U_no_choice; speeds } ->
      Printf.sprintf "uniform-lpt-no-choice:%s" (speeds_str speeds)
  | Uniform { variant = U_no_restriction; speeds } ->
      Printf.sprintf "uniform-lpt-no-restriction:%s" (speeds_str speeds)
  | Uniform { variant = U_group k; speeds } ->
      Printf.sprintf "uniform-ls-group:%d:%s" k (speeds_str speeds)
  | Speed_robust { k } -> Printf.sprintf "speedrobust:%d" k
  | Zone_group k -> Printf.sprintf "zonegroup:%d" k
  | Local_budget b -> Printf.sprintf "localbudget:%s" (num b)

let name = function
  | No_replication Lpt -> "LPT-No Choice"
  | No_replication Ls -> "LS-No Choice"
  | Full_replication Lpt -> "LPT-No Restriction"
  | Full_replication Ls -> "LS-No Restriction"
  | Group { order = Ls; k } -> Printf.sprintf "LS-Group(k=%d)" k
  | Group { order = Lpt; k } -> Printf.sprintf "LPT-Group(k=%d)" k
  | Budgeted k -> Printf.sprintf "Budgeted(k=%d)" k
  | Proportional f -> Printf.sprintf "Budgeted(top %g%% full)" (100.0 *. f)
  | Selective count -> Printf.sprintf "Selective(top=%d)" count
  | Sabo delta -> Printf.sprintf "SABO(delta=%g)" delta
  | Abo delta -> Printf.sprintf "ABO(delta=%g)" delta
  | Memory_budget budget -> Printf.sprintf "MemBudget(B=%g)" budget
  | Reliability { target; budget = None } ->
      Printf.sprintf "Reliability(target=%g)" target
  | Reliability { target; budget = Some b } ->
      Printf.sprintf "Reliability(target=%g, B=%g)" target b
  | Uniform { variant = U_no_choice; _ } -> "Uniform LPT-No Choice"
  | Uniform { variant = U_no_restriction; _ } -> "Uniform LPT-No Restriction"
  | Uniform { variant = U_group k; _ } ->
      Printf.sprintf "Uniform LS-Group(k=%d)" k
  | Speed_robust { k } -> Printf.sprintf "SpeedRobust(k=%d)" k
  | Zone_group k -> Printf.sprintf "ZoneGroup(k=%d)" k
  | Local_budget b -> Printf.sprintf "LocalBudget(B=%g)" b

(* Parsing ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let finish spec =
  let* () =
    Result.map_error
      (fun msg -> Printf.sprintf "%s: %s" (to_string spec) msg)
      (validate spec)
  in
  Ok spec

type entry = {
  keyword : string;
  params : string;
  doc : string;
  example : m:int -> t;
  portfolio : m:int -> t list;
}

(* A spread of speeds for examples/benches: fast, normal, slow nodes. *)
let example_speeds m =
  Array.init m (fun i ->
      match i mod 4 with 0 -> 2.0 | 3 -> 0.5 | _ -> 1.0)

let divisors ~m = List.filter (fun k -> k > 1 && k < m && m mod k = 0)
    (List.init (max m 1) (fun i -> i + 1))

let all =
  [
    {
      keyword = "lpt-no-choice";
      params = "";
      doc = "no replication, LPT on estimates, pinned execution (Thm 2)";
      example = (fun ~m:_ -> No_replication Lpt);
      portfolio = (fun ~m:_ -> [ No_replication Lpt ]);
    };
    {
      keyword = "ls-no-choice";
      params = "";
      doc = "no replication, List Scheduling in submission order (ablation)";
      example = (fun ~m:_ -> No_replication Ls);
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "ls-group";
      params = ":K";
      doc = "K machine groups, LS over groups then LS inside (Thm 4)";
      example = (fun ~m -> Group { order = Ls; k = max 1 (m / 7) });
      portfolio =
        (fun ~m -> List.map (fun k -> Group { order = Ls; k }) (divisors ~m));
    };
    {
      keyword = "lpt-group";
      params = ":K";
      doc = "K machine groups with LPT order in both phases (ablation)";
      example = (fun ~m -> Group { order = Lpt; k = max 1 (m / 7) });
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "budgeted";
      params = ":K";
      doc = "data on the K least-loaded machines per task (overlapping sets)";
      example = (fun ~m -> Budgeted (max 2 (m / 2)));
      portfolio = (fun ~m -> [ Budgeted (max 2 (m / 2)) ]);
    };
    {
      keyword = "proportional";
      params = ":F";
      doc = "largest fraction F of tasks replicated everywhere, rest pinned";
      example = (fun ~m:_ -> Proportional 0.25);
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "selective";
      params = ":COUNT";
      doc = "COUNT largest estimates replicated everywhere, rest pinned";
      example = (fun ~m -> Selective (max 1 (m / 2)));
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "memory";
      params = ":BUDGET";
      doc = "greedy replication under a hard per-machine memory budget";
      example = (fun ~m -> Memory_budget (float_of_int m));
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "reliability";
      params = ":TARGET[:budget:B]";
      doc = "smallest replica sets with P(no stranded task) >= TARGET";
      example = (fun ~m:_ -> Reliability { target = 0.99; budget = None });
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "sabo";
      params = ":DELTA";
      doc = "SABO_D: SBO split, both sides pinned, no replication (Thm 5-6)";
      example = (fun ~m:_ -> Sabo 1.0);
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "abo";
      params = ":DELTA";
      doc = "ABO_D: memory-heavy tasks pinned, time-heavy replicated (Thm 7-8)";
      example = (fun ~m:_ -> Abo 1.0);
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "speedrobust";
      params = ":K";
      doc = "replicas hedged across K machine speed classes (speed bands)";
      example = (fun ~m -> Speed_robust { k = Stdlib.min 2 m });
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "zonegroup";
      params = ":K";
      doc = "one replica in each of the K cheapest zones from the task's home";
      example = (fun ~m -> Zone_group (Stdlib.min 2 m));
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "localbudget";
      params = ":B";
      doc = "cheapest replica zones under transfer budget B x data size";
      example = (fun ~m:_ -> Local_budget 1.0);
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "lpt-no-restriction";
      params = "";
      doc = "replicate everywhere, online LPT in phase 2 (Thm 3)";
      example = (fun ~m:_ -> Full_replication Lpt);
      portfolio = (fun ~m:_ -> [ Full_replication Lpt ]);
    };
    {
      keyword = "ls-no-restriction";
      params = "";
      doc = "replicate everywhere, Graham's online List Scheduling";
      example = (fun ~m:_ -> Full_replication Ls);
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "uniform-lpt-no-choice";
      params = ":SPEEDS";
      doc = "related machines: ECT-LPT on estimates, pinned execution";
      example =
        (fun ~m -> Uniform { variant = U_no_choice; speeds = example_speeds m });
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "uniform-lpt-no-restriction";
      params = ":SPEEDS";
      doc = "related machines: replicate everywhere, online LPT with speeds";
      example =
        (fun ~m ->
          Uniform { variant = U_no_restriction; speeds = example_speeds m });
      portfolio = (fun ~m:_ -> []);
    };
    {
      keyword = "uniform-ls-group";
      params = ":K:SPEEDS";
      doc = "related machines: groups weighted by group speed";
      example =
        (fun ~m ->
          Uniform { variant = U_group (max 1 (m / 7)); speeds = example_speeds m });
      portfolio = (fun ~m:_ -> []);
    };
  ]

let grammar =
  let lines =
    List.map
      (fun e -> Printf.sprintf "  %-32s %s" (e.keyword ^ e.params) e.doc)
      all
  in
  String.concat "\n"
    (("accepted --algo specs (K, COUNT integers; DELTA, BUDGET, F floats; \
       TARGET a probability in (0, 1); SPEEDS comma-separated floats):"
     :: lines)
    @ [ "  group:K                          alias for ls-group:K" ])

(* Nearest registry keyword within a small edit distance, for "did you
   mean" hints on unknown names. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) (fun j -> j) in
  for i = 1 to la do
    let diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let prev = row.(j) in
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      row.(j) <- min (min (row.(j) + 1) (row.(j - 1) + 1)) (!diag + cost);
      diag := prev
    done
  done;
  row.(lb)

let suggest keyword =
  let best =
    List.fold_left
      (fun acc e ->
        let d = levenshtein keyword e.keyword in
        match acc with
        | Some (_, best_d) when best_d <= d -> acc
        | _ when d <= 3 -> Some (e.keyword, d)
        | _ -> acc)
      None all
  in
  match best with
  | Some (k, _) -> Printf.sprintf " (did you mean %s?)" k
  | None -> ""

let of_string s =
  match String.split_on_char ':' s with
  | [] | [ "" ] -> Error (Printf.sprintf "empty algorithm spec\n%s" grammar)
  | [ "help" ] -> Error grammar
  | keyword :: params -> (
      let int = Spec_text.(read Int) (keyword ^ " parameter") in
      let float = Spec_text.(read Number) (keyword ^ " parameter") in
      let speeds raw =
        Result.map Array.of_list
          (Spec_text.(read (List (',', Number))) (keyword ^ " speed") raw)
      in
      let usage form = Error (Printf.sprintf "%s takes %s" keyword form) in
      let no_param spec =
        match params with [] -> finish spec | _ -> usage "no parameter"
      in
      let one_int mk =
        match params with
        | [ p ] ->
            let* k = int p in
            finish (mk k)
        | _ -> usage (Printf.sprintf "one integer, e.g. %s:2" keyword)
      in
      let one_float example mk =
        match params with
        | [ p ] ->
            let* f = float p in
            finish (mk f)
        | _ -> usage (Printf.sprintf "one number, e.g. %s:%s" keyword example)
      in
      let speeds_only variant =
        match params with
        | [ p ] ->
            let* speeds = speeds p in
            finish (Uniform { variant; speeds })
        | _ -> usage (Printf.sprintf "one speeds list, e.g. %s:2,1,1,0.5" keyword)
      in
      match keyword with
      | "lpt-no-choice" -> no_param (No_replication Lpt)
      | "ls-no-choice" -> no_param (No_replication Ls)
      | "lpt-no-restriction" -> no_param (Full_replication Lpt)
      | "ls-no-restriction" -> no_param (Full_replication Ls)
      | "ls-group" | "group" -> one_int (fun k -> Group { order = Ls; k })
      | "lpt-group" -> one_int (fun k -> Group { order = Lpt; k })
      | "budgeted" -> one_int (fun k -> Budgeted k)
      | "proportional" -> one_float "0.25" (fun f -> Proportional f)
      | "selective" -> one_int (fun c -> Selective c)
      | "sabo" -> one_float "0.5" (fun d -> Sabo d)
      | "abo" -> one_float "0.5" (fun d -> Abo d)
      | "memory" -> one_float "16" (fun b -> Memory_budget b)
      | "reliability" -> (
          match params with
          | [ t ] ->
              let* target = float t in
              finish (Reliability { target; budget = None })
          | [ t; "budget"; b ] ->
              let* target = float t in
              let* budget = float b in
              finish (Reliability { target; budget = Some budget })
          | _ ->
              usage
                (Printf.sprintf
                   "TARGET[:budget:B], e.g. %s:0.999 or %s:0.99:budget:16"
                   keyword keyword))
      | "speedrobust" -> one_int (fun k -> Speed_robust { k })
      | "zonegroup" -> one_int (fun k -> Zone_group k)
      | "localbudget" -> one_float "1.5" (fun b -> Local_budget b)
      | "uniform-lpt-no-choice" -> speeds_only U_no_choice
      | "uniform-lpt-no-restriction" -> speeds_only U_no_restriction
      | "uniform-ls-group" -> (
          match params with
          | [ kp; sp ] ->
              let* k = int kp in
              let* speeds = speeds sp in
              finish (Uniform { variant = U_group k; speeds })
          | _ ->
              usage
                (Printf.sprintf
                   "a group count and a speeds list, e.g. %s:2:2,1,1,0.5"
                   keyword))
      | _ ->
          Error
            (Printf.sprintf "unknown algorithm %S%s\n%s" keyword
               (suggest keyword) grammar))

(* Building ----------------------------------------------------------- *)

let check spec ~m =
  let* () = validate spec in
  match spec with
  | Group { k; _ } when k > m ->
      Error
        (Printf.sprintf "group count %d exceeds machine count %d" k m)
  | Speed_robust { k } when k > m ->
      Error
        (Printf.sprintf "speed class count %d exceeds machine count %d" k m)
  | Uniform { variant; speeds } -> (
      if Array.length speeds <> m then
        Error
          (Printf.sprintf "speeds list has %d entries for %d machines"
             (Array.length speeds) m)
      else
        match variant with
        | U_group k when k > m ->
            Error
              (Printf.sprintf "group count %d exceeds machine count %d" k m)
        | _ -> Ok ())
  | _ -> Ok ()

(* Every family's phase 2 is one replay of the engine in a fixed
   priority order. *)
let submission_order instance =
  (* A loop, not [Array.init]: the generic init stores every id through
     [caml_modify]. *)
  let order = Array.make (Instance.n instance) 0 in
  for j = 0 to Array.length order - 1 do
    order.(j) <- j
  done;
  order

let priority = function Lpt -> Instance.lpt_order | Ls -> submission_order
let replay ?speeds order = Two_phase.replay ?speeds (priority order)

(* The same order for a greedy phase 1. *)
let greedy = function Lpt -> `Lpt | Ls -> `Submission

let everywhere instance =
  Placement.full ~m:(Instance.m instance) ~n:(Instance.n instance)

let build spec ~m =
  (match check spec ~m with
  | Ok () -> ()
  | Error msg ->
      invalid_arg (Printf.sprintf "Strategy.build %s: %s" (to_string spec) msg));
  let phase1, phase2 =
    match spec with
    | No_replication order ->
        (No_replication.placement ~order:(greedy order), replay order)
    | Full_replication order -> (everywhere, replay order)
    | Group { order; k } ->
        (Group_replication.placement ~order:(greedy order) ~k, replay order)
    | Budgeted k ->
        ( (fun instance ->
            Budgeted.placement ~budgets:(Array.make (Instance.n instance) k)
              instance),
          replay Lpt )
    | Proportional fraction ->
        (Budgeted.proportional_placement ~fraction, replay Lpt)
    | Selective count -> (Selective.placement ~count, replay Lpt)
    | Sabo delta -> (Sabo.placement ~delta, replay Lpt)
    | Abo delta ->
        ( Abo.placement ~delta,
          Two_phase.replay (fun instance ->
              Abo.phase2_order (Sbo.split ~delta instance)) )
    | Memory_budget budget -> (Memory_budget.placement ~budget, replay Lpt)
    | Reliability { target; budget } ->
        (Reliability.placement ?budget ~target, replay Lpt)
    | Uniform { variant = U_no_choice; speeds } ->
        (Uniform.lpt_placement ~speeds, replay ~speeds Lpt)
    | Uniform { variant = U_no_restriction; speeds } ->
        (Uniform.full_placement ~speeds, replay ~speeds Lpt)
    | Uniform { variant = U_group k; speeds } ->
        (Uniform.group_placement ~speeds ~k, replay ~speeds Ls)
    | Speed_robust { k } -> (Speed_robust.placement ~k, replay Lpt)
    | Zone_group k -> (Zone_placement.zone_group_placement ~k, replay Lpt)
    | Local_budget budget ->
        (Zone_placement.local_budget_placement ~budget, replay Lpt)
  in
  { Two_phase.name = name spec; phase1; phase2 }

let default_portfolio ~m =
  List.concat_map (fun e -> e.portfolio ~m) all
