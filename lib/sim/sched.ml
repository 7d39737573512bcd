type event = { cycle : int; rank : int; seq : int; fn : unit -> unit }

type t = {
  mutable heap : event array;  (* binary min-heap on (cycle, rank, seq) *)
  mutable size : int;
  mutable seq : int;
  mutable clock : int;
  on_advance : int -> unit;
}

(* Fills vacated heap slots so a popped event's closure is not kept alive. *)
let dummy = { cycle = max_int; rank = 0; seq = max_int; fn = ignore }

let create ?(on_advance = ignore) () =
  { heap = Array.make 64 dummy; size = 0; seq = 0; clock = 0; on_advance }

let now t = t.clock

let rank_arbitrate = 1

let before a b =
  a.cycle < b.cycle
  || (a.cycle = b.cycle
      && (a.rank < b.rank || (a.rank = b.rank && a.seq < b.seq)))

(* Hole-based sifts: carry the moving element in a register and slide
   parents/children into the hole, one store per level instead of the three
   a swap costs.  Orderings are identical to the classic swap formulation. *)

let rec sift_up h i ev =
  if i = 0 then h.(0) <- ev
  else begin
    let parent = (i - 1) / 2 in
    if before ev h.(parent) then begin
      h.(i) <- h.(parent);
      sift_up h parent ev
    end
    else h.(i) <- ev
  end

let rec sift_down h size i ev =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    if l < size && before h.(l) ev then
      if r < size && before h.(r) h.(l) then r else l
    else if r < size && before h.(r) ev then r
    else i
  in
  if smallest = i then h.(i) <- ev
  else begin
    h.(i) <- h.(smallest);
    sift_down h size smallest ev
  end

let at t ~cycle ?(rank = 0) fn =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let ev = { cycle = max cycle t.clock; rank; seq = t.seq; fn } in
  t.seq <- t.seq + 1;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ev

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- dummy;
  if t.size > 0 then sift_down t.heap t.size 0 last;
  top

let run_steps t n =
  let steps = ref 0 in
  while t.size > 0 && !steps < n do
    let ev = pop t in
    if ev.cycle > t.clock then begin
      t.clock <- ev.cycle;
      t.on_advance t.clock
    end;
    ev.fn ();
    incr steps
  done;
  !steps

let run t = ignore (run_steps t max_int)

let pending t = t.size

(* ---- processes ---- *)

type _ Effect.t += Suspend : t * ((unit -> unit) -> unit) -> unit Effect.t

let spawn t ~at:cycle body =
  at t ~cycle (fun () ->
      Effect.Deep.match_with body ()
        {
          retc = Fun.id;
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Suspend (owner, register) when owner == t ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      register (fun () -> Effect.Deep.continue k ()))
              | _ -> None);
        })

let suspend t register = Effect.perform (Suspend (t, register))

let wait_until t ~cycle =
  if cycle > t.clock then suspend t (fun resume -> at t ~cycle resume)

let wait t n = if n > 0 then wait_until t ~cycle:(t.clock + n)
