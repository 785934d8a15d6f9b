//===- core/Pipeline.h - Legacy name of the compile result ------*- C++ -*-===//
//
// Compile loops with driver::compileLoop and name the result
// driver::CompileResult. core::PipelineResult stays only because
// perfbench/src/{Table2,Fuzz}.cpp name it.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CORE_PIPELINE_H
#define FLEXVEC_CORE_PIPELINE_H

#include "driver/CompilerDriver.h"

namespace flexvec {
namespace core {

using PipelineResult = driver::CompileResult;

} // namespace core
} // namespace flexvec

#endif // FLEXVEC_CORE_PIPELINE_H
