// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// TPC-H-lite data generator (dbgen analogue). Generates the TPC-H schema
// subset the paper's experiments use — region, nation, supplier, customer,
// part, orders, lineitem — at a configurable scale factor, with:
//
//  * the benchmark's natural ship-date/receipt-date correlation
//    (l_receiptdate = l_shipdate + U[1,30]), which is what defeats the
//    AVI assumption in Experiment 1;
//  * the Experiment-2 modification of the part table: two extra numeric
//    columns p_c1/p_c2 with constant marginal distributions but a
//    correlated joint distribution (p_c2 tracks p_c1 within a window), so
//    a two-predicate selection's true selectivity is steered by the
//    predicate offset while histograms see no change.
//
// The physical design of the paper's experiments is applied on load:
// tables clustered by primary key, nonclustered indexes on l_shipdate,
// l_receiptdate and the foreign-key columns.
//
// partsupp is omitted: it has a composite primary key, is referenced by no
// experiment, and the library's FK model (single-column keys) covers every
// query the paper evaluates. Documented in DESIGN.md.

#ifndef ROBUSTQO_TPCH_TPCH_GEN_H_
#define ROBUSTQO_TPCH_TPCH_GEN_H_

#include <cstdint>

#include "storage/catalog.h"
#include "util/status.h"

namespace robustqo {
namespace tpch {

/// Generator knobs.
struct TpchConfig {
  /// TPC-H scale factor. 1.0 would be the paper's ~6M-row lineitem; the
  /// default 0.02 (~120k rows) keeps experiments laptop-fast while leaving
  /// all crossover selectivities unchanged (they are ratios of cost-model
  /// constants, independent of N).
  double scale_factor = 0.02;
  /// Seed for the data generator (distinct from statistics seeds).
  uint64_t seed = 7;
  /// Width of the p_c2-tracks-p_c1 correlation window, in domain units of
  /// the [0,100) columns.
  double part_correlation_window = 5.0;
  /// Whether to create the experiments' secondary indexes.
  bool build_indexes = true;
};

/// Base row counts at scale factor 1.
inline constexpr uint64_t kCustomersPerSf = 150000;
inline constexpr uint64_t kPartsPerSf = 200000;
inline constexpr uint64_t kSuppliersPerSf = 10000;
inline constexpr uint64_t kOrdersPerSf = 1500000;

/// First and last order dates of the benchmark.
int64_t MinOrderDate();  // 1992-01-01
int64_t MaxOrderDate();  // 1998-08-02

/// Generates all tables into `catalog`, declares keys/FKs/clustering, and
/// builds the experiments' indexes. Fails if tables already exist.
Status LoadTpch(storage::Catalog* catalog, const TpchConfig& config = {});

/// One TPC-H-lite read template at fixed literals.
struct ReadTemplate {
  const char* name;
  const char* sql;
};

/// The eight TPC-H-lite read templates the end-to-end benchmark serves, in
/// its rotation order and at its prepared literals (the Experiment 1 and 2
/// variants at mid-sweep offsets): the Q1/Q3/Q5/Q6/Q14-style queries, the
/// supplier rollup, and the paper's two correlated-predicate experiments.
inline constexpr ReadTemplate kReadTemplates[] = {
    {"q1",
     "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue, "
     "AVG(l_discount) AS avg_disc FROM lineitem WHERE l_shipdate <= "
     "DATE '1998-08-01' GROUP BY l_suppkey"},
    {"q3",
     "SELECT SUM(l_extendedprice) AS revenue FROM customer, orders, "
     "lineitem WHERE c_acctbal >= 0 AND o_orderdate < DATE '1995-03-15' "
     "AND l_shipdate > DATE '1995-03-15'"},
    {"q5",
     "SELECT COUNT(*) AS n FROM region, nation, customer, orders, lineitem "
     "WHERE r_regionkey = 2 AND o_orderdate BETWEEN DATE '1994-01-01' AND "
     "DATE '1994-12-31'"},
    {"q6",
     "SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate "
     "BETWEEN DATE '1994-01-01' AND DATE '1994-12-31' AND l_discount "
     "BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
    {"q14",
     "SELECT SUM(l_extendedprice) AS promo FROM lineitem, part WHERE "
     "p_size BETWEEN 1 AND 15 AND l_shipdate BETWEEN DATE '1995-09-01' AND "
     "DATE '1995-09-30'"},
    {"rollup",
     "SELECT COUNT(*) AS n FROM supplier, lineitem WHERE s_acctbal > 0 "
     "GROUP BY l_suppkey"},
    {"exp1",
     "SELECT SUM(l_extendedprice) AS sum_price FROM lineitem WHERE "
     "l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-08-29' AND "
     "l_receiptdate BETWEEN DATE '1997-09-06' AND DATE '1997-11-04'"},
    {"exp2",
     "SELECT SUM(l_extendedprice) AS sum_price FROM lineitem, orders, part "
     "WHERE p_c1 BETWEEN 50 AND 60 AND p_c2 BETWEEN 62.50 AND 72.50"},
};

}  // namespace tpch
}  // namespace robustqo

#endif  // ROBUSTQO_TPCH_TPCH_GEN_H_
