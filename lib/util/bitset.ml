type t = { words : int array; n : int }

let bits_per_word = Sys.int_size (* 63 on 64-bit systems *)

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* A loop, not [Array.for_all], whose local recursion allocates a
   closure per call: the streaming insert asks this once per repair. *)
let is_empty t =
  let n = Array.length t.words and w = ref 0 in
  while !w < n && Array.unsafe_get t.words !w = 0 do
    incr w
  done;
  !w = n

let copy t = { words = Array.copy t.words; n = t.n }
let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  clear t;
  for i = 0 to t.n - 1 do
    let w = i / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))
  done

let same_capacity a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let union_into ~dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into ~dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let diff_into ~dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land lnot src.words.(w)
  done

let subset a b =
  same_capacity a b;
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let equal a b =
  same_capacity a b;
  let rec go w =
    w >= Array.length a.words || (a.words.(w) = b.words.(w) && go (w + 1))
  in
  go 0

(* Lowest set bit of a non-zero word in constant steps: [x land (-x)]
   isolates it, and multiplying that power of two by this de Bruijn
   constant leaves a distinct pattern in bits 57..62 for each of the 63
   positions of an OCaml int, the sign bit (62) included. *)
let debruijn = 0x03f79d71b4cb0a89

let debruijn_position =
  let table = Array.make 64 0 in
  for i = 0 to bits_per_word - 1 do
    table.(((1 lsl i) * debruijn) lsr 57) <- i
  done;
  table

let lowest_bit x =
  Array.unsafe_get debruijn_position (((x land (-x)) * debruijn) lsr 57)

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref (Array.unsafe_get t.words w) in
    while !word <> 0 do
      f ((w * bits_per_word) + lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

let first_inter a b =
  same_capacity a b;
  let n = Array.length a.words in
  let w = ref 0 and x = ref 0 in
  while !x = 0 && !w < n do
    x := Array.unsafe_get a.words !w land Array.unsafe_get b.words !w;
    incr w
  done;
  if !x = 0 then -1 else ((!w - 1) * bits_per_word) + lowest_bit !x

let first_diff ~from a b =
  same_capacity a b;
  if from < 0 then invalid_arg "Bitset.first_diff: negative start";
  if from >= a.n then -1
  else begin
    let n = Array.length a.words in
    let w = ref (from / bits_per_word) in
    let x =
      ref
        (Array.unsafe_get a.words !w
        land lnot (Array.unsafe_get b.words !w)
        land (-1 lsl (from mod bits_per_word)))
    in
    incr w;
    while !x = 0 && !w < n do
      x := Array.unsafe_get a.words !w land lnot (Array.unsafe_get b.words !w);
      incr w
    done;
    if !x = 0 then -1 else ((!w - 1) * bits_per_word) + lowest_bit !x
  end

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let choose_opt t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements t)
