package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Timing.span
import repro.core.S2TClustering

/** The paper's explicit scenario-2 comparator for QuT-Clustering:
  * "(i) extracting the relevant records using a temporal range query,
  *  (ii) creating an R-tree index on the result of the query, and
  *  (iii) applying clustering (S2T-Clustering, in our case)".
  *
  * Step (ii)'s index is the one S2T's voting builds over the window and
  * searches: the per-timestamp grid of `Voting.kernel`.
  *
  * Unlike QuT, this pipeline re-runs the full S2T stack — including the
  * voting pass, the dominant cost — over the whole window on every query.
  */
object RangeQueryS2T {

  /** Run the baseline over W = [w0, w1). */
  def query(points: DataFrame, w0: Long, w1: Long, p: S2TClustering.Params): S2TClustering.Result = {
    // (i) temporal range query
    val window = points.where(col("t") >= w0 && col("t") < w1).cache()
    try {
      span("range query")(window.count())
      // (ii) + (iii) S2T-Clustering on the window, indexing it as it votes
      S2TClustering.run(window, p)
    } finally window.unpersist()
  }
}
