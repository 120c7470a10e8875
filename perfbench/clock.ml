(* Monotonic wall clock in seconds (CLOCK_MONOTONIC through bechamel's
   stub, so an NTP step never lands inside a timed slice). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
