/// \file fig03_delay_ratio_analysis.cpp
/// Figure 3: analytical SPIN/SPMS end-to-end delay ratio as the
/// transmission radius varies, from the Section 4.1 closed forms (eqs. 1-2)
/// with station counts n(r) taken from the uniform grid density.
/// Also prints the paper's spot check: ratio = 2.7865 at n1=45, ns=5.

#include <iostream>

#include "analysis/delay_model.hpp"
#include "bench_common.hpp"
#include "exp/table.hpp"

int main() {
  using namespace spms;
  bench::print_header("Figure 3", "SPIN:SPMS delay ratio vs transmission radius (analytical)",
                      "ratio grows with the radius toward the 3-access limit; "
                      "spot value 2.7865 at n1=45, ns=5");

  const analysis::DelayParams p;  // paper's constants
  const double pitch = 5.0;
  const double ns = static_cast<double>(analysis::grid_disc_count(5.48, pitch));

  exp::Table t({"radius (m)", "n1(r)", "SPIN delay (ms)", "SPMS delay (ms)", "ratio"});
  for (double r = 5.0; r <= 30.0; r += 2.5) {
    const double n1 = static_cast<double>(analysis::grid_disc_count(r, pitch));
    if (n1 < 1.0) continue;
    const double spin = analysis::spin_pair_delay(p, n1);
    const double spms = analysis::spms_pair_delay(p, n1, ns);
    t.add_row({exp::fmt(r, 1), exp::fmt(n1, 0), exp::fmt(spin, 3), exp::fmt(spms, 3),
               exp::fmt(spin / spms, 4)});
  }
  t.print(std::cout);

  std::cout << "\nspot check (paper Section 4.1, n1=45, ns=5):\n"
            << "  Delay_SPIN : Delay_SPMS = "
            << exp::fmt(analysis::spin_to_spms_delay_ratio(p, 45.0, 5.0), 4)
            << "   (paper prints 2.7865)\n";

  std::cout << "\nworst-case k-relay bound (eq. 3), n1=45, ns=5:\n";
  exp::Table t2({"k relays", "SPMS worst-case delay (ms)"});
  for (std::size_t k = 1; k <= 6; ++k) {
    t2.add_row({std::to_string(k), exp::fmt(analysis::spms_k_relay_worst_delay(p, k, 45, 5), 3)});
  }
  t2.print(std::cout);
  return 0;
}
