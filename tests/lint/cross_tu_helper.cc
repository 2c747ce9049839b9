// fkde-lint fixture: helper TU for the cross-TU hot-alloc pair. It
// defines the per-point helpers the kernels in cross_tu_violating.cc /
// cross_tu_clean.cc call. Analyzed alone this TU is clean (it launches
// nothing and has no FKDE_HOT function); its value is the exported
// summary — "WeightFromTable allocates" — which pass 2 links into the
// kernel TUs.
#include <vector>

namespace fkde {

double WeightFromTable(double x) {
  std::vector<double> table;
  table.push_back(0.5);
  return table.front() * x;
}

double WeightInline(double x) { return 0.5 * x; }

}  // namespace fkde
