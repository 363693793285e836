(** Offline greedy assignment machinery.

    List scheduling as an {e assignment} procedure: take items one at a
    time in a given order and put each on the currently least-loaded
    machine. Phase 1 of every algorithm in the paper is an instance of
    this, over different weights (estimated times, or memory sizes) and
    orders (submission order for LS, decreasing order for LPT). *)

type result = { assignment : int array; loads : float array }
(** [assignment.(j)] is the machine of item [j]; [loads.(i)] the final
    total weight on machine [i]. *)

val list_assign : m:int -> weights:float array -> order:int array -> result
(** Greedy assignment in the given order. Ties on load go to the smallest
    machine id. Raises [Invalid_argument] if [m < 1], weights are
    negative, or [order] is not a permutation of the item ids. *)

val ls : m:int -> weights:float array -> result
(** {!list_assign} in submission order — Graham's List Scheduling. *)

val lpt : m:int -> weights:float array -> result
(** {!list_assign} in non-increasing weight order (ties by id) — Graham's
    Largest Processing Time rule. *)

val makespan : result -> float
(** Largest machine load of an assignment. *)
