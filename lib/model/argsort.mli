(** Stable, monomorphic argsorts of task ids by a float key column.

    The LPT order of phase 1 and the per-machine start order of a
    schedule sort up to 10^6 ids by a float column; [Array.sort] with a
    closure comparator pays a closure call per comparison and a
    [caml_modify] per store. These merge sorts compare unboxed reads of
    the column and allocate one scratch array of half the ids. *)

val decreasing : float array -> int array
(** [decreasing keys] is the ids [0 .. n-1] of [keys] ordered by
    decreasing key under [Float.compare] (NaNs last), ties by increasing
    id: the paper's LPT order on a weight column. The same order as
    [Array.sort] with that comparator. *)

val increasing : float array -> int array -> unit
(** [increasing keys ids] sorts [ids] in place by increasing
    [keys.(id)] under [Float.compare] (NaNs first), keeping equal keys
    in their input order, as [Array.stable_sort] does. An already
    ordered [ids] is left alone after one pass. *)
