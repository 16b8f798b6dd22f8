// analyze-as: src/core/stale_suppression.cc
// Suppression hygiene: an allow comment whose rule no longer fires on the
// covered line is itself flagged, a suppression that still earns its keep
// is not, and an allow naming no rule of this analyzer (a typo, or a rule
// that no longer exists, or `*`, which is no wildcard) is flagged too, and
// so is an allow that does not say why.  An allow that also names stale-suppression keeps a
// deliberately pre-emptive allow quiet.

namespace dnsttl::core {

// analyze:allow(wall-clock) the clock read moved out long ago  // expect: stale-suppression
inline int answer() { return 42; }

// lint:allow(shared-mutable-in-shard) documented debt, still real
unsigned long g_live_tally = 0;

// lint:allow(raw-new) nothing on the next line allocates  // expect: stale-suppression
inline int other() { return 7; }

// lint:allow(raw-new) the allocation below is real, so the allow is used
inline int* leak() { return new int(7); }

// lint:allow(raw-nwe) misspelled, so it silences nothing  // expect: stale-suppression
inline int* typo() { return new int(8); }  // expect: raw-new

// lint:allow(*) no wildcard exists, so this names no rule  // expect: stale-suppression
inline int* wildcard() { return new int(10); }  // expect: raw-new

// analyze:allow(raw-new, stale-suppression) kept for a planned arena
inline int planned() { return 1; }

inline int* bare() { return new int(9); }  /* lint:allow(raw-new) */  // expect: stale-suppression

}  // namespace dnsttl::core
