package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Timing.span
import repro.core.S2TClustering
import repro.rtree.{Box3D, RTree3D}

/** The paper's explicit scenario-2 comparator for QuT-Clustering:
  * "(i) extracting the relevant records using a temporal range query,
  *  (ii) creating an R-tree index on the result of the query, and
  *  (iii) applying clustering (S2T-Clustering, in our case)".
  *
  * Unlike QuT, this pipeline re-runs the full S2T stack — including the
  * voting pass, the dominant cost — over the whole window on every query.
  */
object RangeQueryS2T {

  final case class Result(s2t: S2TClustering.Result, rtree: RTree3D)

  /** Run the three-step baseline over W = [w0, w1). */
  def query(points: DataFrame, w0: Long, w1: Long, p: S2TClustering.Params): Result = {
    val spark = points.sparkSession
    import spark.implicits._

    // (i) temporal range query
    val window = points.where(col("t") >= w0 && col("t") < w1).cache()
    try {
      span("range query")(window.count())

      // (ii) R-tree on the result (per-object MBBs, as pg3D-Rtree indexes
      // trajectories)
      val rtree = span("rtree build") {
        val boxes = window
          .groupBy("obj_id")
          .agg(min("x") as "minx", max("x") as "maxx",
               min("y") as "miny", max("y") as "maxy",
               min("t") as "mint", max("t") as "maxt")
          .as[(Long, Double, Double, Double, Double, Long, Long)]
          .collect()
        RTree3D.bulkLoad(boxes.zipWithIndex.map { case ((_, x0, x1, y0, y1, t0, t1), i) =>
          (Box3D(x0, x1, y0, y1, t0, t1), i)
        }.toIndexedSeq)
      }

      // (iii) full S2T-Clustering on the window
      Result(S2TClustering.run(window, p), rtree)
    } finally window.unpersist()
  }
}
