(* Order statistics over latency samples.

   A percentile is reported together with its sample count, and only
   when at least [min_beyond] samples lie beyond it: with fewer, the
   value is one or two outliers rather than a tail estimate. *)

let min_beyond = 10

type percentile = { value : float; samples : int }

(* A growable buffer of unboxed floats; the timed loop appends one
   latency per reply without allocating a box per sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples ?(capacity = 4096) () =
  { data = Array.make (max 1 capacity) 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let grown = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 grown 0 s.len;
    s.data <- grown
  end;
  Array.unsafe_set s.data s.len x;
  s.len <- s.len + 1

let count s = s.len

(* Samples [first, last), sorted. *)
let sorted_range s first last =
  let a = Array.sub s.data first (last - first) in
  Array.sort Float.compare a;
  a

let to_sorted s = sorted_range s 0 s.len

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if p <= 0. || p >= 1. then invalid_arg "Stats.percentile: p must be in (0, 1)";
  let rank = min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float n)) - 1)) in
  let beyond = n - 1 - rank in
  if n = 0 then Error "no samples"
  else if beyond < min_beyond then
    Error
      (Printf.sprintf
         "p%g of %d samples has %d beyond it; at least %d are needed"
         (100. *. p) n beyond min_beyond)
  else Ok { value = sorted.(rank); samples = n }

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
