(** Zone-aware replication: placements that price data movement.

    Both builders read the instance's cluster topology
    ({!Usched_model.Instance.topology_or_uniform} — a topology-free
    instance behaves as one zone) and treat task [j]'s data as born on
    its home machine [j mod m], so a replica inside the home zone is
    free while a cross-zone replica pays
    [Topology.zone_cost ~src:home ~dst:zone ~size] in transfer cost
    (exactly the quantity {!Placement.replication_cost} accounts).

    - [zonegroup:K] spreads each task over the [K] cheapest zones from
      its home (home zone first — its copy is free), one replica per
      zone on the least-loaded machine there. Fault domains are zones:
      the placement survives any [K - 1] whole-zone outages (when the
      topology has at least [K] zones) at a transfer cost of only the
      [K - 1] cheapest links, where full replication pays every link
      for every task.
    - [localbudget:B] caps each task's transfer spend at [B] times its
      data size: the home zone is always covered (degree >= 1, free),
      then further zones join cheapest-first while the cumulative
      staging cost stays within [B * size_j]. [B = 0] degenerates to
      home-zone-only placement; large [B] converges to one replica in
      every zone.

    Both run phase 2 as online LPT over the replica sets; within a
    zone, machine choice is greedy least-est-loaded in LPT order,
    charging the expected share [est / degree] like the speed-robust
    builder. *)

module Instance = Usched_model.Instance

val zone_group_placement : k:int -> Instance.t -> Placement.t
(** The [zonegroup:K] placement: one replica in each of the [K] cheapest
    zones from the task's home zone (clamped to the topology's zone
    count — on a uniform topology every task gets exactly one replica).
    Raises [Invalid_argument] if [k < 1]. *)

val local_budget_placement : budget:float -> Instance.t -> Placement.t
(** The [localbudget:B] placement: the cheapest replica zones under the
    per-task transfer budget [budget * size_j]. Raises
    [Invalid_argument] when [budget] is NaN, infinite, or negative. *)
