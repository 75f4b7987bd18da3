package repro.sampling

import repro.model.{SubTraj, TrajDistance}

/** The Sampling step of SaCO (phase 2a of S2T-Clustering).
  *
  * Select the sampling set S of sub-trajectories that will serve as cluster
  * representatives: highly-voted sub-trajectories that together cover the
  * (x, y, t) extent of the dataset as much as possible. We use the standard
  * greedy max-coverage scheme: repeatedly take the not-yet-covered
  * sub-trajectory with the highest representativeness score (total voting
  * mass = mean vote × length), then suppress everything it covers (within
  * `eps` over at least `minOverlapFrac` of its lifespan). Suppression is what
  * yields spatio-temporal coverage — a second representative is never chosen
  * from inside an already-represented neighborhood.
  *
  * This runs centrally (as it does inside Hermes): its input is one
  * descriptor per sub-trajectory, orders of magnitude smaller than the MOD.
  */
object Sampling {

  final case class Params(eps: Double, minOverlapFrac: Double, maxReps: Int, minAvgVote: Double)

  /** Greedy selection of the sampling set. Deterministic: ties broken by
    * (objId, subId). Returns representatives in selection order — their index
    * is the cluster id used downstream.
    */
  def select(subs: Array[SubTraj], p: Params): Array[SubTraj] = {
    require(p.maxReps >= 1, s"maxReps must be >= 1, got ${p.maxReps}")
    val order = subs.zipWithIndex
      .sortBy { case (s, _) => (-s.score, s.objId, s.subId) }
    val covered = new Array[Boolean](subs.length)
    val reps = Array.newBuilder[SubTraj]
    var nReps = 0
    for ((cand, idx) <- order if nReps < p.maxReps) {
      if (!covered(idx) && cand.meanVote >= p.minAvgVote) {
        reps += cand
        nReps += 1
        var j = 0
        while (j < subs.length) {
          if (!covered(j) &&
              TrajDistance.coverDist(subs(j).series, cand.series, p.minOverlapFrac) <= p.eps)
            covered(j) = true
          j += 1
        }
      }
    }
    reps.result()
  }
}
