package org.apache.spark

/** The one `private[spark]` hook the benchmark needs: listener counters are
  * delivered asynchronously, so they are read only after the bus drained.
  */
object PerfbenchAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
