(** Internet checksum (RFC 1071) and CRC-32.

    The Internet checksum covers IPv4 headers and TCP
    pseudo-header+segment. CRC-32 (IEEE 802.3 polynomial) models the
    NFP-4000's CRC acceleration, used by FlexTOE's pre-processor to
    hash a segment's 4-tuple into the active-connection database and
    to pick flow groups. *)

val ones_complement : Bytes.t -> off:int -> len:int -> init:int -> int
(** [init] plus a raw ones'-complement sum of the [len] bytes at [off]
    (not yet folded or complemented), read a 64-bit word at a time.
    The result is not the plain sum of 16-bit big-endian words that RFC
    1071 describes, but it is congruent to it modulo 0xFFFF and is zero
    exactly when it is, so {!finish} yields the same checksum from
    either, and it can be passed on as another call's [init]. An odd
    trailing byte is padded with zero, per RFC 1071. [init] must be
    non-negative. Raises [Invalid_argument] if the range is not within
    [buf]; allocates nothing. *)

val finish : int -> int
(** Fold carries and complement, yielding the 16-bit checksum. *)

val internet : Bytes.t -> off:int -> len:int -> int
(** [finish (ones_complement ~init:0 ...)]. *)

val pseudo_header_sum :
  src_ip:int -> dst_ip:int -> protocol:int -> length:int -> int
(** Ones'-complement sum of the IPv4 pseudo-header for TCP/UDP
    checksums. *)

val crc32 : Bytes.t -> off:int -> len:int -> int
(** CRC-32 (reflected, IEEE polynomial 0xEDB88320), as used for flow
    hashing. *)

val crc32_ints : int list -> int
(** CRC-32 over a list of 32-bit big-endian words; convenient for
    hashing a 4-tuple without materialising bytes. *)

val crc32_ints3 : int -> int -> int -> int
(** [crc32_ints3 a b c = crc32_ints [ a; b; c ]], without building the
    list: the flow-hash form, allocation-free. *)
