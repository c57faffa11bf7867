#ifndef DIGEST_WORKLOAD_TIMESCALE_H_
#define DIGEST_WORKLOAD_TIMESCALE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "sampling/tuple_sampler.h"
#include "workload/workload.h"

namespace digest {

/// Breaks the snapshot assumption (§II assumes the database is static
/// during a sampling occasion; §VIII #3 asks what happens when the
/// time-scale of data changes is comparable to the sampling time).
///
/// This SampleSource decorator advances the underlying workload by one
/// tick after every `draws_per_advance` fresh samples, so the estimator
/// reads a *moving* population mid-occasion. With draws_per_advance far
/// above the per-occasion sample count the wrapper is inert; as it
/// approaches 1, each occasion smears over many data versions and the
/// estimate converges to a time-average rather than a snapshot —
/// `bench_timescale` quantifies the degradation.
///
/// It is the one source that changes the database mid-draw, so it cannot
/// hand out borrowed samples: an advance may rewrite or drop the tuples
/// an earlier chunk borrowed. Each chunk's tuples are copied before the
/// world moves on, and the returned samples point at those copies, which
/// hold the draw-time values until the next DrawFresh call. An inner
/// batch the hop budget cuts ends the call: the copies made so far come
/// back with timed_out set, and their draws count toward the quota.
class InterleavingSampleSource : public SampleSource {
 public:
  /// Neither pointer is owned; both must outlive the source.
  InterleavingSampleSource(SampleSource* inner, Workload* workload,
                           size_t draws_per_advance)
      : inner_(inner),
        workload_(workload),
        draws_per_advance_(draws_per_advance == 0 ? 1
                                                  : draws_per_advance) {}

  Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) override {
    owned_.clear();
    PartialTupleBatch out;
    out.samples.reserve(n);
    while (out.samples.size() < n && !out.timed_out) {
      const size_t quota = draws_per_advance_ - pending_draws_;
      const size_t chunk = std::min(n - out.samples.size(), quota);
      DIGEST_ASSIGN_OR_RETURN(PartialTupleBatch batch,
                              inner_->DrawFresh(origin, chunk));
      pending_draws_ += batch.samples.size();
      for (const TupleSample& s : batch.samples) {
        owned_.push_back(*s.tuple);
        out.samples.push_back(TupleSample{s.ref, &owned_.back()});
      }
      out.timed_out = batch.timed_out;
      if (pending_draws_ >= draws_per_advance_) {
        DIGEST_RETURN_IF_ERROR(workload_->Advance());
        ++mid_occasion_advances_;
        pending_draws_ = 0;
      }
    }
    return out;
  }

  /// Ticks the world advanced from inside sampling occasions.
  size_t mid_occasion_advances() const { return mid_occasion_advances_; }

 private:
  SampleSource* inner_;
  Workload* workload_;
  size_t draws_per_advance_;
  size_t pending_draws_ = 0;
  size_t mid_occasion_advances_ = 0;
  // The last call's tuple copies; a deque keeps them in place as it
  // grows.
  std::deque<Tuple> owned_;
};

}  // namespace digest

#endif  // DIGEST_WORKLOAD_TIMESCALE_H_
