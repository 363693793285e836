(* Runs one usched process at a time (a closed loop with one client),
   timing it from spawn to exit and killing it at its deadline. *)

type status = Exited of int | Signaled of int | Timed_out

type outcome = { status : status; wall_s : float; stdout : string; stderr : string }

(* The running child, killed if the benchmark itself is stopped. *)
let current = ref None

let kill_current () =
  match !current with
  | None -> ()
  | Some pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      current := None

(* Every child reports its GC statistics at exit ([top_heap_words] gives
   the peak heap); the rest of the environment is inherited. *)
let child_env () =
  Array.append
    [| "OCAMLRUNPARAM=v=0x400" |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
          (Array.to_list (Unix.environment ()))))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run ~prog ~dir ~timeout_s args =
  let out_path = Filename.concat dir "proc.stdout"
  and err_path = Filename.concat dir "proc.stderr" in
  let open_out path =
    Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let fd_out = open_out out_path and fd_err = open_out err_path in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd_out;
        Unix.close fd_err)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (child_env ()) Unix.stdin fd_out fd_err)
  in
  current := Some pid;
  (* Block until the child exits; SIGALRM kills it at its deadline. *)
  let timed_out = ref false in
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           timed_out := true;
           try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()))
  in
  let arm seconds =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = seconds })
  in
  arm timeout_s;
  let rec wait () =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let exit_status = wait () in
  let wall_s = Unix.gettimeofday () -. t0 in
  arm 0.0;
  Sys.set_signal Sys.sigalrm previous;
  current := None;
  let status =
    match exit_status with
    | _ when !timed_out -> Timed_out
    | Unix.WEXITED c -> Exited c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s
  in
  { status; wall_s; stdout = read_file out_path; stderr = read_file err_path }

let describe = function
  | Exited c -> Printf.sprintf "exit code %d" c
  | Signaled s -> Printf.sprintf "killed by signal %d" s
  | Timed_out -> "timed out"

(* Peak major heap in MB from the runtime's exit statistics. *)
let peak_heap_mb o =
  List.find_map
    (fun line ->
      Scanf.sscanf_opt line "top_heap_words: %d" (fun w ->
          float_of_int w *. 8.0 /. 1048576.0))
    (String.split_on_char '\n' o.stderr)
