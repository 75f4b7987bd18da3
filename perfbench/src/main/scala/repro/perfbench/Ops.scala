package repro.perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Accounts a run's operations: latency samples per kind of operation, and
  * how many operations were attempted and how many failed — by throwing or
  * by failing a check of their output.
  */
final class Ops {
  private val latency = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val failures = mutable.ArrayBuffer.empty[String]
  var attempted = 0
  var failed = 0
  /** Latency of the last timed operation, NaN if it failed. */
  var lastMs: Double = Double.NaN

  /** Run one operation of `kind`, time it, then check its output: `check`
    * returns a message for a wrong output. Only passing operations add a
    * latency sample. Returns the output, if the operation did not throw.
    */
  def timed[A](kind: String)(body: => A)(check: A => Option[String]): Option[A] = {
    attempted += 1
    val t0 = System.nanoTime()
    val out = try Right(body) catch { case NonFatal(e) => Left(e) }
    val ms = (System.nanoTime() - t0) / 1e6
    lastMs = Double.NaN
    out match {
      case Left(e) => fail(kind, s"threw $e"); None
      case Right(a) =>
        val verdict = try check(a) catch { case NonFatal(e) => Some(s"check threw $e") }
        verdict match {
          case Some(msg) => fail(kind, msg)
          case None      =>
            latency.getOrElseUpdate(kind, mutable.ArrayBuffer.empty) += ms
            lastMs = ms
        }
        Some(a)
    }
  }

  /** An untimed check of the run's state, counted as one operation. */
  def check(what: String)(verdict: => Option[String]): Unit = {
    attempted += 1
    (try verdict catch { case NonFatal(e) => Some(s"threw $e") }).foreach(fail(what, _))
  }

  private def fail(kind: String, msg: String): Unit = {
    failed += 1
    if (failures.length < 20) failures += s"$kind: $msg"
  }

  def ms(kind: String): Seq[Double] = latency.get(kind).fold(Seq.empty[Double])(_.toSeq)
  def failureMessages: Seq[String] = failures.toSeq
  /** Per kind: the summary of its latency sample, and the sample in order. */
  def summaries: Map[String, Map[String, Any]] =
    latency.map { case (k, xs) => k -> (Stats.summary(xs.toSeq) + ("ms" -> xs.toSeq)) }.toMap
}
