package repro.core

import org.apache.spark.sql.DataFrame
import repro.Timing.span
import repro.clustering.GreedyClustering
import repro.model.{Assignment, SubTraj}
import repro.sampling.Sampling
import repro.voting.{Segmentation, Voting}

/** Sampling-based Sub-Trajectory Clustering (S2T-Clustering, [9]) — the
  * paper's first core module.
  *
  * Two phases, four steps:
  *  1. NaTS:  Voting  →  Segmentation
  *  2. SaCO:  Sampling  →  GreedyClustering + outlier detection
  *
  * Only voting, the data-heavy step, runs on Spark: one job votes and
  * collects the votes, which the driver groups into one voted series per
  * object ([[Voting.votedSeries]]). The other steps run on the driver, as
  * SaCO does in Hermes, like each ReTraTree chunk.
  */
object S2TClustering {

  /** All tunables of the pipeline; defaults suit the synthetic MOD of
    * `TrajGen` (lane width 2, kernel σ=1.5 → a lane-mate votes ≈ 1).
    */
  final case class Params(
      sigma: Double = 1.5,
      lambda: Double = 2.0,
      minLen: Int = 4,
      maxGap: Long = 60L,
      eps: Double = 10.0,
      minOverlapFrac: Double = 0.5,
      maxReps: Int = 128,
      minAvgVote: Double = 1.0
  ) {
    require(sigma > 0, s"sigma must be positive, got $sigma")
    require(lambda >= 0, s"lambda must be non-negative, got $lambda")
    require(minLen >= 1, s"minLen must be at least 1, got $minLen")
    require(maxGap >= 0, s"maxGap must be non-negative, got $maxGap")
    require(eps.isFinite && eps >= 0, s"eps must be finite and non-negative, got $eps")
    require(minOverlapFrac >= 0 && minOverlapFrac <= 1, s"minOverlapFrac must lie in [0, 1], got $minOverlapFrac")
    require(maxReps >= 1, s"maxReps must be at least 1, got $maxReps")
    require(minAvgVote.isFinite && minAvgVote >= 0, s"minAvgVote must be finite and non-negative, got $minAvgVote")

    def segmentation: Segmentation.Params = Segmentation.Params(lambda, minLen, maxGap)
    def sampling: Sampling.Params = Sampling.Params(eps, minOverlapFrac, maxReps, minAvgVote)
  }

  /** Full result: the segmentation, the sampling set (cluster ids = indices),
    * and the per-sub-trajectory assignments (outliers have clusterId -1).
    */
  final case class Result(subs: Array[SubTraj], reps: Array[SubTraj],
                          assignments: Array[Assignment]) {
    def nClusters: Int = reps.length
    def outliers: Array[Assignment] = assignments.filter(_.clusterId == Assignment.Outlier)
  }

  /** Run the whole pipeline on a MOD DataFrame (obj_id, t, x, y), sampled
    * on one common time grid. Its phases are the spans "voting" (the one Spark
    * job), "segmentation", "sampling" and "assignment" (driver time).
    */
  def run(points: DataFrame, p: Params): Result = {
    val series = span("voting")(Voting.votedSeries(points, p.sigma))
    val subs = span("segmentation")(series.flatMap(Segmentation.segmentOne(_, p.segmentation)))
    val (reps, assignments) = localPhases(subs, p)
    Result(subs, reps, assignments)
  }

  /** SaCO (sampling, then assignment) over already-voted, already-segmented
    * sub-trajectories: [[run]] after segmentation, and each ReTraTree
    * sub-chunk's clustering.
    */
  def localPhases(subs: Array[SubTraj], p: Params): (Array[SubTraj], Array[Assignment]) = {
    val reps = span("sampling")(Sampling.select(subs, p.sampling))
    (reps, span("assignment")(GreedyClustering.assignLocal(subs, reps, p.eps, p.minOverlapFrac)))
  }
}
