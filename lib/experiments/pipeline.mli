(** [usched solve] as a library call. The stages: load the instance and
    apply the flags' overrides of its header; place (phase 1); replay
    the placement once in LPT order under the run's speeds and policy;
    the robustness summaries (survival, speed); the replay mode (stream,
    faulty or none); the closing trace line. Stdout and the JSONL trace
    are the command's output, byte for byte. *)

(** One field per [usched solve] flag; see [usched solve --help]. *)
type options = {
  algo : Usched_core.Strategy.t;
  seed : int;
  gantt : bool;
  fail_rate : float;
  speculate : float option;
  recover : Usched_faults.Recovery.target;
  detect_latency : float;
  bandwidth : float;
  checkpoint : float;
  target_reliability : float option;
  speeds : float array option;
  speed_band : string option;
  topology : string option;
  policy : Usched_desim.Dispatch.spec;
  stream : bool;
  arrival : Usched_desim.Arrival.t;
  trace : string option;
}

val default : options
(** The flags' defaults. *)

val run : options -> string -> (unit, string) result
(** [run options file] solves the instance in [file]. A usage error (an
    unreadable file, a value out of range, a spec that does not fit the
    machine count, a trace path whose directory cannot be created) is an
    [Error] naming the file or the flag, returned before anything is
    printed or written. *)

val run_instance :
  options -> file:string -> Usched_model.Instance.t -> (unit, string) result
(** [run_instance options ~file instance] is {!run} on an instance
    already read from [file] (the name goes only into the output). The
    instance's columns are read, never written. *)
