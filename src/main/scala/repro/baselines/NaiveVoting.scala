package repro.baselines

import repro.model.TrajPoint
import repro.voting.Voting

/** Tuple-at-a-time voting — the stand-in for the "corresponding PostgreSQL
  * functions" of the demo's preparatory phase, against which the in-DBMS
  * set-based implementation claims "orders of magnitude speedup".
  *
  * It computes exactly the same votes as [[repro.voting.Voting.votes]], but
  * the way a procedural PL/pgSQL function over an unindexed table would: for
  * every sample, a full scan over all other samples testing temporal equality
  * and spatial distance — no grouping of samples by t, no spatial grid.
  * O(P²) in the number of samples.
  */
object NaiveVoting {

  /** Votes aligned with the input order. */
  def votes(points: Array[TrajPoint], sigma: Double): Array[Double] = {
    val cut2 = Voting.cutoff(sigma) * Voting.cutoff(sigma)
    val inv2s2 = 1.0 / (2 * sigma * sigma)
    val out = new Array[Double](points.length)
    var i = 0
    while (i < points.length) {
      val a = points(i)
      var v = 0.0
      var j = 0
      while (j < points.length) {
        val b = points(j)
        if (b.t == a.t && b.objId != a.objId) {
          val dx = a.x - b.x; val dy = a.y - b.y
          val d2 = dx * dx + dy * dy
          if (d2 <= cut2) v += math.exp(-d2 * inv2s2)
        }
        j += 1
      }
      out(i) = v
      i += 1
    }
    out
  }
}
