package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** Spark work credited to one span call. */
final class SparkWork {
  val taskMs = new AtomicLong
  val shuffleWriteBytes = new AtomicLong
  val shuffleReadBytes = new AtomicLong
  val spillBytes = new AtomicLong
  val inputBytes = new AtomicLong
  val inputRecords = new AtomicLong
  val jobs = new AtomicLong
}

/** Credits Spark task metrics and job counts to the span call that was
  * active on the driver when the job was submitted. The span travels as a
  * local property of the submitting thread, which Spark copies into the job
  * and stage events.
  */
final class LayerListener extends SparkListener {
  val work = new ConcurrentHashMap[String, SparkWork]()
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val jobsStarted = new AtomicLong
  private val jobsEnded = new AtomicLong
  private val events = new AtomicLong

  private def of(span: String): SparkWork = work.computeIfAbsent(span, _ => new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    jobsStarted.incrementAndGet(); events.incrementAndGet()
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey))).foreach { span =>
      of(span).jobs.incrementAndGet()
      e.stageInfos.foreach(s => stageSpan.put(s.stageId, span))
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    events.incrementAndGet()
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .foreach(span => stageSpan.put(e.stageInfo.stageId, span))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    events.incrementAndGet()
    val m = e.taskMetrics
    Option(stageSpan.get(e.stageId)).filter(_ => m != null).foreach { span =>
      val w = of(span)
      w.taskMs.addAndGet(m.executorRunTime)
      w.shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      w.shuffleReadBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      w.spillBytes.addAndGet(m.memoryBytesSpilled + m.diskBytesSpilled)
      w.inputBytes.addAndGet(m.inputMetrics.bytesRead)
      w.inputRecords.addAndGet(m.inputMetrics.recordsRead)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    events.incrementAndGet(); jobsEnded.incrementAndGet()
  }

  /** Wait until every started job has ended and no event arrived for
    * `quietMs`, so that the totals are complete. Gives up after `maxMs`.
    */
  def settle(quietMs: Long = 200, maxMs: Long = 10000): Unit = {
    val deadline = System.nanoTime() + maxMs * 1000000L
    var last = -1L
    while (System.nanoTime() < deadline &&
           (jobsEnded.get != jobsStarted.get || events.get != last)) {
      last = events.get
      Thread.sleep(quietMs)
    }
  }
}

/** Spans around calls into the program's layers. With tracing off a span
  * only runs its body; with tracing on it records the call's wall time and
  * the Spark work of the jobs it submitted, per call.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  private val listener = new LayerListener
  private val wall = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val calls = mutable.Map.empty[String, Int]
  if (enabled) sc.addSparkListener(listener)

  private var on = enabled

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val n = calls.getOrElse(name, 0)
      calls(name) = n + 1
      val prev = sc.getLocalProperty(Tracer.SpanKey)
      sc.setLocalProperty(Tracer.SpanKey, s"$name#$n")
      val t0 = System.nanoTime()
      try body
      finally {
        wall.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += (System.nanoTime() - t0) / 1e6
        sc.setLocalProperty(Tracer.SpanKey, prev)
      }
    }

  /** Runs `body` with no span recorded: work that is not measured. */
  def paused[A](body: => A): A = {
    val was = on
    on = false
    try body finally on = was
  }

  /** Wall milliseconds of every call of `name`, in call order. */
  def wallMs(name: String): Seq[Double] = wall.get(name).fold(Seq.empty[Double])(_.toSeq)

  /** The Spark work of every call of `name`, in call order (calls that ran
    * no job give an empty record). Call after [[finish]].
    */
  private def work(name: String): Seq[SparkWork] =
    (0 until calls.getOrElse(name, 0)).map(i =>
      Option(listener.work.get(s"$name#$i")).getOrElse(new SparkWork))

  /** Median over the calls of `name` of one Spark work figure. */
  def medianWork(name: String)(f: SparkWork => AtomicLong): Double =
    Stats.median(work(name).map(w => f(w).get.toDouble))

  def finish(): Unit = if (enabled) { listener.settle(); sc.removeSparkListener(listener) }
}

object Tracer {
  val SpanKey = "perfbench.span"
}
