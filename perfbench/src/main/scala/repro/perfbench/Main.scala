package repro.perfbench

import org.apache.spark.sql.SparkSession

import scala.util.control.NonFatal

/** Runs one workload once and prints its result as one JSON line:
  * `correct`, `attempted`, `failed`, the end-to-end and per-layer metrics,
  * and detail. `perfbench/run.py` builds this program and wraps it.
  *
  * Arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --cores <n> --work-dir <dir>`.
  */
object Main {
  val workloads: Map[String, Workload] = Map(
    "s2t-batch" -> S2TBatch, "insert-query" -> InsertQuery)

  /** The session settings `jobs/JobUtil` ships, on `local[cores]`, UI off. */
  def sessionConf(cores: Int, workDir: String): Seq[(String, String)] = Seq(
    "spark.master" -> s"local[$cores]",
    "spark.sql.shuffle.partitions" -> "64",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.local.dir" -> s"$workDir/spark-local")

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = workloads.getOrElse(opt("workload"),
      sys.error(s"unknown workload ${opt("workload")}; known: ${workloads.keys.mkString(", ")}"))
    val cores = opt("cores").toInt
    val workDir = opt("work-dir")
    val conf = sessionConf(cores, workDir)
    val (spark, startS) = Workload.seconds(conf.foldLeft(SparkSession.builder.appName("perfbench")) {
      case (b, (k, v)) => b.config(k, v)
    }.getOrCreate())

    val tracer = new Tracer(spark.sparkContext, opt("trace") == "1")
    val ctx = Ctx(spark, opt("seed").toLong, opt("seconds").toDouble, tracer, new Ops, workDir)
    val (report, runS) = Workload.seconds(try Some(workload.run(ctx)) catch {
      case NonFatal(e) =>
        e.printStackTrace()
        ctx.ops.attempted += 1; ctx.ops.failed += 1
        None
    })
    val (_, stopS) = Workload.seconds(spark.stop())

    val ops = ctx.ops
    println(Json.render(Map(
      "correct" -> (report.isDefined && ops.failed == 0),
      "attempted" -> ops.attempted,
      "failed" -> ops.failed,
      "end_to_end" -> report.fold(Map.empty[String, Double])(_.endToEnd),
      "per_layer" -> report.fold(Map.empty[String, Double])(_.perLayer),
      "detail" -> (report.fold(Map.empty[String, Any])(_.detail) ++ Map(
        "latency_ms" -> ops.summaries,
        "failures" -> ops.failureMessages,
        "spark_conf" -> conf.toMap,
        "session_start_s" -> startS, "workload_s" -> runS, "session_stop_s" -> stopS,
        "java" -> System.getProperty("java.version"),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024))))))
  }
}
