// Paper-scale pin: the full Section 7.3 study -- 25 test cases x 16 bit
// flips x 10 instants x 13 target signals plus 25 golden runs, 52,025 runs
// -- through exp::run_paper_experiment, with every (n_inj, n_err) pair of
// Table 1 compared to the committed expectation in paper_table1.expected.
// The campaign runs on the lockstep batch engine, so this is the net under
// any change to it: a deviation in a single run's first-divergence outcome
// moves an n_err count.
#include "exp/paper_experiment.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

namespace propane::exp {
namespace {

using PairCounts = std::map<std::string, std::pair<std::size_t, std::size_t>>;

/// "<module> <input> <output>" -> (n_inj, n_err); '#' lines are comments.
PairCounts load_expectation() {
  std::ifstream in(PROPANE_PAPER_TABLE1_PATH);
  EXPECT_TRUE(in.good()) << PROPANE_PAPER_TABLE1_PATH;
  PairCounts counts;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string module, input, output;
    std::size_t injections = 0, errors = 0;
    row >> module >> input >> output >> injections >> errors;
    EXPECT_FALSE(row.fail()) << "malformed expectation line: " << line;
    counts[module + " " + input + " " + output] = {injections, errors};
  }
  return counts;
}

TEST(PaperPin, Table1CountsMatchExpectation) {
  const PaperExperiment experiment = run_paper_experiment(paper_scale());
  EXPECT_EQ(experiment.campaign.run_count(), 52025u);

  PairCounts measured;
  for (const fi::PairEstimate& pair : experiment.estimation.pairs) {
    if (pair.injections == 0) continue;
    measured[experiment.model.module_name(pair.pair.module) + " " +
             pair.input_name + " " + pair.output_name] = {pair.injections,
                                                          pair.errors};
  }
  const PairCounts expected = load_expectation();
  ASSERT_EQ(expected.size(), 25u);
  EXPECT_EQ(measured.size(), expected.size());
  for (const auto& [name, counts] : expected) {
    const auto it = measured.find(name);
    ASSERT_NE(it, measured.end()) << "pair missing from Table 1: " << name;
    EXPECT_EQ(it->second.first, counts.first) << name << " n_inj";
    EXPECT_EQ(it->second.second, counts.second) << name << " n_err";
  }
}

}  // namespace
}  // namespace propane::exp
