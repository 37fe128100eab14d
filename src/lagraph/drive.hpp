// lagraph::drive — the one resume loop behind every resumable driver.
//
// A resumable driver keeps only its own parts, each a callable over loop
// state it owns:
//
//   setup(from)  graph-derived setup (cached properties, derived matrices),
//                then load the loop state from the capsule `from`, or seed it
//                fresh when `from` is null;
//   more()       the loop predicate;
//   step()       one iteration. Every GraphBLAS operation is transactional,
//                so a trip anywhere in the body is safe as long as the body
//                builds into temporaries and commits to the loop state only
//                after its last poll point (plain moves and counter bumps);
//   save(cp)     write the loop state at an iteration boundary into `cp`.
//
// drive() owns the protocol, in this order:
//
//   1. validate the incoming capsule (a capsule written by another algorithm
//      is an Error) and bank it in res.checkpoint before any governed work,
//      so a resumed run that trips again hands back at least the capsule it
//      was given;
//   2. run setup as one governed step — a cold Graph builds its cached
//      properties inside the trip window, never outside it;
//   3. loop: more() (governed), then the between-iterations interrupt check,
//      then one governed step;
//   4. on a trip: set res.stop and capture the capsule through save(). The
//      capture is best effort: packing allocates and can trip again, in which
//      case the banked capsule stays. A setup trip keeps the banked capsule
//      (there is no new loop state to save).
//
// On completion res.checkpoint is cleared and res.stop is left for the driver
// to set (converged, max_iters, ...). Ungoverned, every body runs bare and
// every exception propagates exactly as without drive().
#pragma once

#include <utility>

#include "lagraph/checkpoint.hpp"
#include "lagraph/scope.hpp"

namespace lagraph {

/// Run a resumable driver's loop. `res` is the driver's result struct (any
/// type with `.stop` and `.checkpoint`); `algorithm` tags the capsule.
/// Returns the trip reason, or StopReason::none when more() ran out.
template <class Result, class Setup, class More, class Step, class Save>
StopReason drive(Result& res, const char* algorithm, const Checkpoint* resume,
                 Setup&& setup, More&& more, Step&& step, Save&& save) {
  const Checkpoint* from =
      resume != nullptr && !resume->empty() ? resume : nullptr;
  if (from != nullptr) {
    check_resume(*from, algorithm);
    res.checkpoint = *from;
  }

  const Scope scope;
  StopReason why = scope.step([&] { setup(from); });
  if (why != StopReason::none) {
    res.stop = why;
    return why;
  }
  for (bool go = true;;) {
    why = scope.step([&] { go = more(); });
    if (why != StopReason::none || !go) break;
    why = scope.interrupted();
    if (why != StopReason::none) break;
    why = scope.step(step);
    if (why != StopReason::none) break;
  }
  if (why == StopReason::none) {
    res.checkpoint.clear();
    return why;
  }

  res.stop = why;
  try {
    Checkpoint cp;
    cp.set_algorithm(algorithm);
    save(cp);
    res.checkpoint = std::move(cp);
  } catch (...) {
    // Capture failed (e.g. the byte budget tripped again while packing):
    // the banked capsule, if any, still resumes to the same answer.
  }
  return why;
}

}  // namespace lagraph
