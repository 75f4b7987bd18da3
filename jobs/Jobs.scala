package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoints, one per reconstructed table (DESIGN.md E1–E4).
  * Each prints the table that EXPERIMENTS.md records. With no arguments a
  * job runs its harness function's own defaults; arguments override the
  * object counts.
  */
object JobUtil {
  /** Opens the session `name`, prints the table that `table` renders with it,
    * and stops the session, also when `table` throws.
    */
  def run(name: String)(table: SparkSession => String): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    try println(table(spark)) finally spark.stop()
  }
}

/** E1 — S2T-Clustering runtime breakdown vs. MOD size. */
object E1S2TScaling {
  def main(args: Array[String]): Unit = JobUtil.run("E1S2TScaling") { spark =>
    Experiments.formatE1(
      if (args.nonEmpty) Experiments.runE1(spark, args.map(_.toInt).toSeq) else Experiments.runE1(spark))
  }
}

/** E2 — QuT-Clustering vs. range-query+S2T for varying W. */
object E2QuT {
  def main(args: Array[String]): Unit = JobUtil.run("E2QuT") { spark =>
    Experiments.formatE2(
      if (args.nonEmpty) Experiments.runE2(spark, args(0).toInt) else Experiments.runE2(spark))
  }
}

/** E3 — quality vs. TRACLUS, T-OPTICS and Convoys on planted groups. */
object E3Quality {
  def main(args: Array[String]): Unit = JobUtil.run("E3Quality") { spark =>
    Experiments.formatE3(
      if (args.nonEmpty) Experiments.runE3(spark, args(0).toInt) else Experiments.runE3(spark))
  }
}

/** E4 — set-based vs. tuple-at-a-time voting ("orders of magnitude" claim). */
object E4InDbms {
  def main(args: Array[String]): Unit = JobUtil.run("E4InDbms") { spark =>
    Experiments.formatE4(
      if (args.nonEmpty) Experiments.runE4(spark, args.map(_.toInt).toSeq) else Experiments.runE4(spark))
  }
}
