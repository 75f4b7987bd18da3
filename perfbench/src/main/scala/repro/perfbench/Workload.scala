package repro.perfbench

import org.apache.spark.sql.SparkSession

import java.lang.management.ManagementFactory

/** Everything a workload run needs: the session, its seed and measuring
  * time, the tracer, the operation accounting and a private directory.
  */
final case class Ctx(spark: SparkSession, seed: Long, seconds: Double, tracer: Tracer,
                     ops: Ops, workDir: String) {
  def trace: Boolean = tracer.enabled

  /** Starts the timed phase; the returned test is true while it lasts. */
  def measuring(): () => Boolean = {
    val end = System.nanoTime() + (seconds * 1e9).toLong
    () => System.nanoTime() < end
  }
}

/** What a run measured: end-to-end metrics (untraced runs), per-layer
  * metrics (traced runs) and free-form detail for the result file.
  */
final case class Report(endToEnd: Map[String, Double], perLayer: Map[String, Double],
                        detail: Map[String, Any])

trait Workload {
  def run(ctx: Ctx): Report
}

object Workload {

  /** Driver heap in MiB still live after full collections. */
  def heapLiveMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(50) }
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** Seconds taken by `body`, with its value. */
  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }
}
