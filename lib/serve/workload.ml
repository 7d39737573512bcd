type params = {
  tenants : int;
  requests : int;
  seed : int;
  mean_gap : int;
  ramp : int;
  churn_pct : int;
  mix : (string * int) list;
  scales : (int * int) list;
}

type ev =
  | Tenant_arrive of int
  | Tenant_depart of int
  | Request of { rq : int; tenant : int; bench : string; scale : int }

type timed = { at : int; ev : ev }

let default_mix = [ ("aes", 3); ("kmp", 2); ("sort_merge", 2); ("spmv_crs", 1) ]
let default_scales = [ (1, 4); (2, 2); (4, 1) ]

let ev_rank = function
  | Tenant_arrive _ -> 0
  | Request _ -> 1
  | Tenant_depart _ -> 2

let check p =
  let check_weights what = function
    | [] -> Error (Printf.sprintf "empty %s" what)
    | ws when List.exists (fun (_, w) -> w <= 0) ws ->
        Error (Printf.sprintf "non-positive weight in %s" what)
    | _ -> Ok ()
  in
  if p.tenants < 1 then Error "tenants must be at least 1"
  else if p.requests < 0 then Error "requests must be at least 0"
  else if p.mean_gap < 1 then Error "mean_gap must be at least 1"
  else if p.churn_pct < 0 || p.churn_pct > 100 then
    Error "churn must be between 0 and 100 percent"
  else Result.bind (check_weights "mix" p.mix) (fun () ->
           check_weights "scales" p.scales)

let pick_weighted r items =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 items in
  let d = Ccsim.Rng.int r total in
  let rec go d = function
    | [] -> assert false
    | (x, w) :: rest -> if d < w then x else go (d - w) rest
  in
  go d items

(* A quarter of requests concentrate on the first [tenants/8] tenants: a
   skewed popularity profile so some compartments stay hot (roots resident)
   while the cold tail churns the table. *)
let heavy_tenants p = max 1 (p.tenants / 8)

let generate p =
  (match check p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Workload.generate: " ^ msg));
  let rng = Ccsim.Rng.create p.seed in
  (* Split order is part of the schedule's definition — changing it changes
     every seed's workload, which the determinism tests would catch. *)
  let r_arrive = Ccsim.Rng.split rng in
  let r_churn = Ccsim.Rng.split rng in
  let r_req = Ccsim.Rng.split rng in
  let arrivals =
    Array.init p.tenants (fun _ ->
        if p.ramp = 0 then 0 else Ccsim.Rng.int r_arrive (p.ramp + 1))
  in
  (* Requests: open-loop arrival process, gap uniform in [1, 2*mean_gap-1]
     (mean = mean_gap); tenant, kernel and scale drawn per request. *)
  let heavy = heavy_tenants p in
  let t = ref 0 in
  let requests =
    List.init p.requests (fun rq ->
        t := !t + 1 + Ccsim.Rng.int r_req (max 1 ((2 * p.mean_gap) - 1));
        let tenant =
          if Ccsim.Rng.int r_req 4 = 0 then Ccsim.Rng.int r_req heavy
          else Ccsim.Rng.int r_req p.tenants
        in
        let bench = pick_weighted r_req p.mix in
        let scale = pick_weighted r_req p.scales in
        { at = !t; ev = Request { rq; tenant; bench; scale } })
  in
  let horizon = !t in
  let departures =
    List.filter_map
      (fun tenant ->
        if Ccsim.Rng.int r_churn 100 < p.churn_pct then
          let arrive = arrivals.(tenant) in
          let span = max 1 (horizon - arrive) in
          Some
            { at = arrive + 1 + Ccsim.Rng.int r_churn span;
              ev = Tenant_depart tenant }
        else None)
      (List.init p.tenants (fun i -> i))
  in
  let arrivals_l =
    List.init p.tenants (fun i -> { at = arrivals.(i); ev = Tenant_arrive i })
  in
  List.stable_sort
    (fun a b ->
      match compare a.at b.at with
      | 0 -> compare (ev_rank a.ev) (ev_rank b.ev)
      | c -> c)
    (arrivals_l @ requests @ departures)
