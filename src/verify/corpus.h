/**
 * @file
 * Campaign corpora: the one mapping from a campaign spec line (the
 * identity a coordinator sends as "spec <identity>") to the scenarios
 * a worker runs. The grammar is space-separated key=value tokens:
 *
 *   corpus=fuzz  [seed=U64] [faults=0|1]   fuzzScenario(seed, i)
 *   corpus=bench runs=N                    benchScenario(i, runs)
 *
 * plus, for both, [engine=fast|reference] [scenarios=N] [chunk=N].
 * seed defaults to 2021, faults to 0 and engine to fast; scenarios
 * and chunk shape the coordinator's dispatch and are only checked.
 * Any other input is refused with a message, never resolved to a
 * different corpus: a value that is not wholly a number (runs=3x), an
 * unknown corpus, engine or key, a key of the other corpus, a repeated
 * key, or a token without '='.
 */

#ifndef AITAX_VERIFY_CORPUS_H
#define AITAX_VERIFY_CORPUS_H

#include <string>

#include "sweep/campaign.h"
#include "verify/scenario.h"

namespace aitax::verify {

/**
 * Row @p index of the bench matrix (models x frameworks x harness
 * modes x chipsets x seeds, cycling), @p runs frames each.
 */
Scenario benchScenario(int index, int runs);

/**
 * The sweep::SpecResolver of every campaign worker: @p spec's
 * ScenarioFn, or an empty function with @p error set.
 */
sweep::ScenarioFn resolveCorpusSpec(const std::string &spec,
                                    std::string *error);

} // namespace aitax::verify

#endif // AITAX_VERIFY_CORPUS_H
